package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ulixes"
	"ulixes/internal/changefeed"
	"ulixes/internal/engine"
	"ulixes/internal/guard"
	"ulixes/internal/overload"
	"ulixes/internal/pagecache"
	"ulixes/internal/sitegen"
	"ulixes/internal/standing"
	"ulixes/internal/vselect"
)

// server is the HTTP face of one shared query system. Admission runs
// through a cost-aware bounded queue (internal/overload): at most Slots
// queries run at once, up to -queue more wait FIFO bounded by -queue-wait
// sojourn (CoDel-style: overdue waiters are dropped even when a slot
// frees), and queries whose estimated page cost exceeds the remaining
// -capacity-pages are refused at the door. A draining flag refuses new work
// during graceful shutdown. When a site-health guard is attached,
// low-priority queries are shed at admission (503) while any host's breaker
// is open, so the remaining capacity goes to must-run work. Every handler
// runs under a recover middleware: a panic (a wrapper bug on hostile HTML)
// becomes one 500 and a counter, not a dead server.
type server struct {
	sys   *ulixes.System
	cache *pagecache.Cache
	guard *guard.Guard // nil when -guard=false

	// selector, when non-nil (-views-auto), re-decides the materialized
	// view set every viewsEvery served queries from the recorded workload;
	// selecting keeps concurrent re-decisions from stacking up.
	selector   *vselect.Selector
	viewsEvery int

	// feed and standing, when non-nil (-feed), are the push-consistency
	// pipeline: the monitor feeding mutation events and the standing-query
	// registry served by /subscribe and /watch. mutator (university sites
	// only) backs /mutate; mutMu serializes its steps.
	feed     *changefeed.Monitor
	standing *standing.Registry
	mutator  *sitegen.Mutator
	mutMu    sync.Mutex
	// watchCtx ends open /watch streams on drain: http.Server.Shutdown waits
	// for active requests, and a long-poll would otherwise hold it until the
	// drain deadline.
	watchCtx  context.Context
	stopWatch context.CancelFunc

	// queue is the admission layer; deadlines clamps per-query budgets
	// (?deadline= up to -deadline-max, -deadline when the client is
	// silent); ledger is the shared byte ledger /stats reports per
	// subsystem.
	queue     *overload.Queue
	deadlines overload.DeadlineBudget
	ledger    *overload.Ledger
	// watchWrite bounds each /watch write+flush: a client that stops
	// reading is disconnected (watchDropped) instead of pinning the
	// stream goroutine and its buffered deltas forever.
	watchWrite time.Duration

	draining        atomic.Bool
	inflight        atomic.Int64
	served          atomic.Int64
	rejected        atomic.Int64
	shed            atomic.Int64
	deadlineExpired atomic.Int64
	panics          atomic.Int64
	watchDropped    atomic.Int64
	selecting       atomic.Bool
	// selectWG tracks the in-flight background reselection, so shutdown and
	// tests can wait for it to settle.
	selectWG sync.WaitGroup
	// sweeper runs the poll-mode feed's sweeps until stopSweep.
	sweeper   sync.WaitGroup
	stopSweep context.CancelFunc

	mu sync.Mutex
	// totals accumulates every served query's ExecStats via ExecStats.Add,
	// which folds counters only, so /stats can report the query-side cost
	// ledger (the paper's C(E) summed over the workload) next to the store's
	// own counters in memory that does not grow with the queries served.
	totals engine.ExecStats // guarded by mu
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.protect(s.handleQuery))
	mux.HandleFunc("/healthz", s.protect(s.handleHealthz))
	mux.HandleFunc("/stats", s.protect(s.handleStats))
	mux.HandleFunc("/subscribe", s.protect(s.handleSubscribe))
	mux.HandleFunc("/watch", s.protect(s.handleWatch))
	mux.HandleFunc("/mutate", s.protect(s.handleMutate))
	return mux
}

// recoveringWriter tracks whether a handler already committed a response,
// so the recover middleware knows whether a 500 can still be written. It
// forwards Flush and exposes Unwrap so http.ResponseController reaches the
// underlying writer's write-deadline support.
type recoveringWriter struct {
	http.ResponseWriter
	wrote bool
}

func (rw *recoveringWriter) WriteHeader(code int) {
	rw.wrote = true
	rw.ResponseWriter.WriteHeader(code)
}

func (rw *recoveringWriter) Write(b []byte) (int, error) {
	rw.wrote = true
	return rw.ResponseWriter.Write(b)
}

func (rw *recoveringWriter) Flush() {
	if f, ok := rw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// FlushError exists because ResponseController.Flush prefers it over plain
// Flush: without it the controller would stop at this wrapper's Flusher and
// swallow the underlying write error — exactly the error the /watch
// write-deadline machinery needs to see to disconnect a stalled client.
func (rw *recoveringWriter) FlushError() error {
	return http.NewResponseController(rw.ResponseWriter).Flush()
}

func (rw *recoveringWriter) Unwrap() http.ResponseWriter { return rw.ResponseWriter }

// protect is the panic-isolation middleware: a panic anywhere under a
// handler — most plausibly the wrapper choking on hostile HTML — is
// recovered into a 500 and a counter. One query dies; the server, its
// store, and every other in-flight query keep running. Deferred releases
// (admission tickets, inflight gauges) run normally during the unwind.
func (s *server) protect(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rw := &recoveringWriter{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				s.panics.Add(1)
				log.Printf("ulixesd: recovered panic in %s: %v", r.URL.Path, p)
				if !rw.wrote {
					writeJSON(rw, http.StatusInternalServerError,
						errorResponse{Error: fmt.Sprintf("internal error: %v", p)})
				}
			}
		}()
		h(rw, r)
	}
}

// drain stops admitting queries; in-flight ones finish normally. Open
// /watch streams are ended so shutdown does not wait out their long-polls.
func (s *server) drain() {
	s.draining.Store(true)
	s.stopWatch()
}

// stop ends the work drain leaves running: the poll-mode sweeper, and a
// background view selection already under way, which it lets settle.
func (s *server) stop() {
	s.stopSweep()
	s.sweeper.Wait()
	s.selectWG.Wait()
}

// queryStats is the wire form of an engine.ExecStats: a query's own
// accounting in its response, and the sum over every served query in
// /stats queryTotals. Accesses is the session's own count of distinct pages
// touched — the paper's C(E), invariant across cold and warm stores — and a
// complete answer reconciles it with Pages + CacheHits + Revalidations +
// Stale; Pages alone is what this query cost the network, SharedFetches of
// them on a GET a concurrent query issued. PeakInFlight is the store's
// high-water mark of simultaneous network accesses.
type queryStats struct {
	Accesses         int     `json:"accesses"`
	Pages            int     `json:"pages"`
	SharedFetches    int     `json:"sharedFetches,omitempty"`
	CacheHits        int     `json:"cacheHits"`
	Revalidations    int     `json:"revalidations"`
	LightConnections int     `json:"lightConnections"`
	Bytes            int64   `json:"bytes"`
	WallMs           float64 `json:"wallMs"`
	Stale            int     `json:"stale,omitempty"`
	Hedges           int     `json:"hedges,omitempty"`
	BreakerFastFails int     `json:"breakerFastFails,omitempty"`
	PeakInFlight     int     `json:"peakInFlight"`
	// PlanCached reports that the plan came from the prepared-plan cache
	// (Algorithm 1 skipped); PlanMs is the time spent obtaining the plan
	// either way.
	PlanCached bool    `json:"planCached,omitempty"`
	PlanMs     float64 `json:"planMs"`
	// FromView reports that the answer came from materialized views: no
	// plan was built and no page was accessed. In queryTotals, PlanCached
	// and FromView say whether any served query was.
	FromView bool `json:"fromView,omitempty"`
}

// newQueryStats converts an execution's statistics to their wire form.
func newQueryStats(st engine.ExecStats) queryStats {
	return queryStats{
		Accesses:         st.Accesses,
		Pages:            st.Pages,
		SharedFetches:    st.SharedFetches,
		CacheHits:        st.CacheHits,
		Revalidations:    st.Revalidations,
		LightConnections: st.LightConnections,
		Bytes:            st.Bytes,
		WallMs:           float64(st.Wall) / float64(time.Millisecond),
		Stale:            st.Stale,
		Hedges:           st.Hedges,
		BreakerFastFails: st.BreakerFastFails,
		PeakInFlight:     st.PeakInFlight,
		PlanCached:       st.PlanCached,
		PlanMs:           float64(st.PlanWall) / float64(time.Millisecond),
		FromView:         st.AnsweredFromView,
	}
}

type queryFailure struct {
	URL     string `json:"url"`
	Error   string `json:"error"`
	Retries int    `json:"retries"`
}

type queryResponse struct {
	Plan          string     `json:"plan"`
	EstimatedCost float64    `json:"estimatedCost"`
	Columns       []string   `json:"columns"`
	Rows          [][]string `json:"rows"`
	Stats         queryStats `json:"stats"`
	Degraded      bool       `json:"degraded,omitempty"`
	// DeadlineExpired marks an answer cut short by the per-query deadline
	// budget: what was reached is returned, the rest is in Failures.
	DeadlineExpired bool           `json:"deadlineExpired,omitempty"`
	Failures        []queryFailure `json:"failures,omitempty"`
	StalePages      []string       `json:"stalePages,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// lowPriority reports whether the request marked itself sheddable, via the
// X-Ulixes-Priority header or the ?priority= query parameter.
func lowPriority(r *http.Request) bool {
	p := r.Header.Get("X-Ulixes-Priority")
	if p == "" {
		p = r.URL.Query().Get("priority")
	}
	return strings.EqualFold(strings.TrimSpace(p), "low")
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining"})
		return
	}
	// Load shedding: while any host's breaker is open the system is
	// degraded, so sheddable work is refused at admission rather than
	// spending bulkhead slots and stale serves on it.
	if s.guard != nil && lowPriority(r) && s.guard.AnyOpen() {
		s.shed.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "degraded: low-priority queries shed while a circuit breaker is open"})
		return
	}
	// Parse before admission: it is cheap, it rejects garbage without
	// spending a slot, and it gives the admission queue a shape to price.
	text, ok := queryText(w, r)
	if !ok {
		return
	}
	q, err := ulixes.ParseQuery(text)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	reqDeadline, err := durParam(r, "deadline")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad ?deadline=: want a non-negative Go duration like 500ms or 5s"})
		return
	}

	pri := overload.Normal
	if lowPriority(r) {
		pri = overload.Low
	}
	// The estimate is advisory: a never-seen shape prices as 0 ("unknown,
	// admit on slots alone"); a cached shape's plan cost gates it against
	// the page capacity the admitted set already holds.
	// The shape is worked out once, for the estimate and the plan.
	shape := ulixes.ShapeOf(q)
	est, _ := s.sys.EstimatedPages(shape)
	ticket, err := s.queue.Acquire(r.Context(), pri, est)
	if err != nil {
		s.refuse(w, err)
		return
	}
	defer ticket.Release()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	ctx := r.Context()
	opts := s.sys.ExecOpts()
	if d := s.deadlines.Resolve(reqDeadline); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
		// A deadline implies degraded execution: at expiry the query
		// returns the pages it reached as a partial answer (the failures
		// listed per URL) instead of hanging or failing outright.
		opts.Degraded = true
	}
	ans, err := s.sys.QueryShapeOptsCtx(ctx, shape, opts)
	switch {
	case err == nil:
	case errors.Is(err, pagecache.ErrBudgetExceeded):
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	case ctx.Err() != nil && r.Context().Err() == nil:
		// The per-query budget expired (the client is still there): the
		// degraded evaluator could not salvage a partial answer in time.
		s.deadlineExpired.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: fmt.Sprintf("deadline exceeded: %v", err)})
		return
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	// A query that answered inside its budget but saw the deadline expire
	// mid-flight returns what it reached, marked: partial beats hung.
	expired := ctx.Err() != nil && r.Context().Err() == nil
	if expired {
		s.deadlineExpired.Add(1)
	}
	// The value returned by Add is this request's exact serial number;
	// re-reading the counter could skip the viewsEvery multiple when two
	// requests increment before either reads.
	s.maybeReselect(s.served.Add(1))

	st := ans.Exec
	s.mu.Lock()
	s.totals.Add(st)
	s.mu.Unlock()
	// A view answer never built a plan; Answer.Plan is nil on that path.
	planText, planCost := "(answered from materialized views)", 0.0
	if !ans.FromView {
		planText, planCost = ans.Plan.Expr.String(), ans.Plan.Cost
	}
	resp := queryResponse{
		Plan:            planText,
		EstimatedCost:   planCost,
		Columns:         ans.Result.Names(),
		Stats:           newQueryStats(st),
		Degraded:        st.Degraded,
		DeadlineExpired: expired,
		StalePages:      st.StalePages,
	}
	if tuples := ans.Result.Sorted(); len(tuples) > 0 {
		// One backing array for every cell: the rows of an answer share
		// its arity.
		resp.Rows = make([][]string, len(tuples))
		cells := make([]string, 0, len(tuples)*tuples[0].Arity())
		for r, t := range tuples {
			start := len(cells)
			for i := 0; i < t.Arity(); i++ {
				cells = append(cells, t.At(i).String())
			}
			resp.Rows[r] = cells[start:len(cells):len(cells)]
		}
	}
	for _, f := range st.Failures {
		resp.Failures = append(resp.Failures, queryFailure{
			URL: f.URL, Error: f.Err.Error(), Retries: f.Retries,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// refuse maps an admission error to its HTTP status: queue-full and
// no-capacity-now are retryable (429 with Retry-After), an overdue sojourn
// or a shed low-priority request is 503, a query too expensive to ever fit
// the configured capacity is 422, and a client that vanished while queued
// gets a best-effort 503 it will never read.
func (s *server) refuse(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, overload.ErrShed):
		s.shed.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case errors.Is(err, overload.ErrOverdue):
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case errors.Is(err, overload.ErrTooExpensive):
		s.rejected.Add(1)
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
	case errors.Is(err, overload.ErrQueueFull), errors.Is(err, overload.ErrNoCapacity):
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	default: // context canceled/expired while queued
		s.rejected.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	}
}

// durParam reads an optional non-negative duration query parameter. A
// negative value is an error, not "absent": the deadline budget reads 0 or
// less as "the client did not ask", which would run the query unbounded.
func durParam(r *http.Request, name string) (time.Duration, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err == nil && d < 0 {
		err = fmt.Errorf("negative duration %s", v)
	}
	return d, err
}

// maybeReselect re-runs benefit-driven view selection every viewsEvery
// served queries (served is this request's exact serial number, so the
// multiple test is race-free). The work — including the initial
// materialization crawl and the pre-apply store revalidation, both of which
// touch the whole site — runs in a background goroutine, NOT on the request
// path: the triggering query's response and its admission slot are not held
// hostage to a crawl. At most one re-selection runs at a time; overlapping
// triggers are dropped, not queued — the next multiple tries again.
func (s *server) maybeReselect(served int64) {
	if s.selector == nil || s.viewsEvery <= 0 {
		return
	}
	if served%int64(s.viewsEvery) != 0 {
		return
	}
	rec, vm := s.sys.Workload(), s.sys.ViewManager()
	if rec == nil || vm == nil {
		return
	}
	if !s.selecting.CompareAndSwap(false, true) {
		return
	}
	s.selectWG.Add(1)
	go func() {
		defer s.selectWG.Done()
		defer s.selecting.Store(false)
		s.reselect(rec, vm)
	}()
}

// reselect is the background body of one selection run: snapshot the
// recorded workload, ask the drift gate whether the mix has shifted enough
// to matter, and if so revalidate the backing store and apply the new
// decision through the view manager (which enforces the storage budget on
// measured extent bytes).
func (s *server) reselect(rec *ulixes.WorkloadRecorder, vm *ulixes.ViewManager) {
	sums := rec.Snapshot()
	if !s.selector.ShouldRun(sums) {
		return
	}
	// Revalidate before re-deciding: extents built by Apply inherit the
	// store's last verification time, so without this pass a reselection
	// would re-serve the original crawl until it ages past -views-horizon.
	// The first selection has no store yet: its crawl verifies every page
	// itself.
	if _, _, stale := vm.RefreshStore(); len(stale) > 0 {
		log.Printf("ulixesd: view refresh: %d pages unreachable, freshness horizon not renewed", len(stale))
	}
	d := s.selector.Decide(sums)
	kept, err := vm.Apply(d.Defs())
	if err != nil {
		log.Printf("ulixesd: view selection: %v", err)
		return
	}
	keys := make([]string, len(kept))
	for i, def := range kept {
		keys[i] = def.Key()
	}
	log.Printf("ulixesd: view selection run %d materialized %d views (%s), %d bytes",
		s.selector.Runs(), len(kept), strings.Join(keys, ", "), vm.Bytes())
}

// subscribeResponse acknowledges a standing-query registration: the id
// addresses /watch and DELETE /subscribe, the footprint is the set of
// page-schemes whose mutations re-answer the query.
type subscribeResponse struct {
	ID        int      `json:"id"`
	Query     string   `json:"query"`
	Footprint []string `json:"footprint"`
}

// handleSubscribe registers (POST) or cancels (DELETE ?id=) a standing
// query. The initial snapshot arrives as the subscription's first delta on
// /watch, so a client that subscribes and immediately watches from after=0
// misses nothing.
func (s *server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if s.standing == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "push feed disabled; restart with -feed hook or -feed poll"})
		return
	}
	switch r.Method {
	case http.MethodDelete:
		id, err := intParam(r, "id", -1)
		if err != nil || id < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "DELETE /subscribe needs ?id=N"})
			return
		}
		if !s.standing.Unsubscribe(id) {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown subscription %d", id)})
			return
		}
		writeJSON(w, http.StatusOK, map[string]int{"unsubscribed": id})
	case http.MethodPost:
		text, ok := queryText(w, r)
		if !ok {
			return
		}
		id, err := s.standing.Subscribe(text)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, subscribeResponse{
			ID: id, Query: text, Footprint: s.standing.Footprint(id),
		})
	default:
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST to subscribe, DELETE ?id= to cancel"})
	}
}

// handleWatch delivers a subscription's deltas with seq > after. The default
// shape is one long-poll: block until at least one delta exists, return them
// all as a JSON array (the client acks by passing the last seq back). With
// ?sse=1 (or Accept: text/event-stream) the connection stays open and every
// delta is pushed as a server-sent event whose id is its seq, so a client
// that reconnects with after=<Last-Event-ID> — or a browser EventSource,
// which resends the id as the Last-Event-ID header — resumes exactly where
// it broke.
func (s *server) handleWatch(w http.ResponseWriter, r *http.Request) {
	if s.standing == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "push feed disabled; restart with -feed hook or -feed poll"})
		return
	}
	id, err := intParam(r, "id", -1)
	if err != nil || id < 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "GET /watch needs ?id=N"})
		return
	}
	after, err := intParam(r, "after", 0)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad ?after="})
		return
	}
	// An explicit ?after= wins; otherwise an EventSource reconnect's
	// Last-Event-ID header carries the last seq the client saw.
	if r.URL.Query().Get("after") == "" {
		if n, err := strconv.Atoi(r.Header.Get("Last-Event-ID")); err == nil && n > after {
			after = n
		}
	}
	// A drain ends the stream as if the client disconnected.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(s.watchCtx, cancel)()

	// Every write below runs under a per-write deadline: a client that
	// stops reading blocks the write until the deadline, is counted as
	// dropped, and the stream goroutine exits — it cannot pin the server
	// (or, via the buffered deltas it never drains, its memory) forever.
	rc := http.NewResponseController(w)
	armWrite := func() {
		if s.watchWrite > 0 {
			_ = rc.SetWriteDeadline(time.Now().Add(s.watchWrite))
		}
	}
	sse := r.URL.Query().Get("sse") != "" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if !sse {
		ds, err := s.standing.Next(ctx, id, after)
		if err != nil {
			code := http.StatusNotFound
			if ctx.Err() != nil {
				code = http.StatusServiceUnavailable // drained or disconnected
			}
			armWrite()
			writeJSON(w, code, errorResponse{Error: err.Error()})
			return
		}
		armWrite()
		writeJSON(w, http.StatusOK, ds)
		return
	}

	if _, ok := w.(http.Flusher); !ok {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "streaming unsupported"})
		return
	}
	// watchBuf accounts the bytes sitting between us and a (possibly slow)
	// client for the duration of each write, so /stats memLedger shows
	// where stalled-subscriber memory is.
	watchBuf := s.ledger.Account("watchBuffers")
	send := func(payload string) bool {
		watchBuf.Add(int64(len(payload)))
		defer watchBuf.Add(-int64(len(payload)))
		armWrite()
		if _, err := io.WriteString(w, payload); err != nil {
			s.watchDropped.Add(1)
			return false
		}
		if err := rc.Flush(); err != nil {
			s.watchDropped.Add(1)
			return false
		}
		return true
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	armWrite()
	w.WriteHeader(http.StatusOK)
	if err := rc.Flush(); err != nil {
		// The client cannot even take the headers within the write
		// deadline: drop it now, before a delta is buffered for it.
		s.watchDropped.Add(1)
		return
	}
	for {
		ds, err := s.standing.Next(ctx, id, after)
		if err != nil {
			if ctx.Err() == nil {
				// Unsubscribed underneath the stream: tell the client before
				// closing, so it knows not to reconnect.
				send(fmt.Sprintf("event: gone\ndata: %s\n\n", err.Error()))
			}
			return
		}
		for _, d := range ds {
			b, err := json.Marshal(d)
			if err != nil {
				return
			}
			if !send(fmt.Sprintf("id: %d\nevent: delta\ndata: %s\n\n", d.Seq, b)) {
				return
			}
			after = d.Seq
		}
	}
}

// mutationResponse reports the applied steps of one /mutate call.
type mutationResponse struct {
	Op   string   `json:"op"`
	URLs []string `json:"urls"`
}

// handleMutate applies n deterministic mutation steps to the served site —
// the driver that lets clients (and the smoke test) exercise the push
// pipeline end to end. Only the university site has a mutation workload.
func (s *server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if s.mutator == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no mutation workload: requires -site university and -feed hook or poll"})
		return
	}
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST /mutate?n=K"})
		return
	}
	n, err := intParam(r, "n", 1)
	if err != nil || n < 1 || n > 10000 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "?n= must be 1..10000"})
		return
	}
	s.mutMu.Lock()
	muts := s.mutator.Steps(n)
	s.mutMu.Unlock()
	out := make([]mutationResponse, len(muts))
	for i, m := range muts {
		out[i] = mutationResponse{Op: m.Op.String(), URLs: m.URLs}
	}
	writeJSON(w, http.StatusOK, out)
}

// intParam reads an optional integer query parameter.
func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	return strconv.Atoi(v)
}

// healthResponse is the /healthz payload. The server stays alive (200)
// while breakers are open — queries degrade to stale serves rather than
// fail — but reports itself "degraded" with the affected hosts so probes
// and dashboards see the condition.
type healthResponse struct {
	Status       string            `json:"status"`
	BreakersOpen int               `json:"breakersOpen,omitempty"`
	Breakers     map[string]string `json:"breakers,omitempty"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining"})
		return
	}
	resp := healthResponse{Status: "ok"}
	if s.guard != nil {
		for _, h := range s.guard.Snapshot() {
			if h.State == guard.Closed.String() {
				continue
			}
			if resp.Breakers == nil {
				resp.Breakers = make(map[string]string)
			}
			resp.Breakers[h.Host] = h.State
			if h.State == guard.Open.String() {
				resp.BreakersOpen++
			}
		}
		if resp.BreakersOpen > 0 {
			resp.Status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// storeStats is the /stats payload: the shared store's own counters, the
// server's admission ledger, the subsystems' own counters and (with the
// guard on) per-host breaker and bulkhead health.
type storeStats struct {
	pagecache.Stats
	EntryCount int   `json:"entryCount"`
	EntryBytes int64 `json:"entryBytes"`
	Inflight   int64 `json:"inflight"`
	Served     int64 `json:"served"`
	Rejected   int64 `json:"rejected"`
	Shed       int64 `json:"shed,omitempty"`
	// Overload-resilience ledger: the admission queue's live depth and
	// drop totals, expired per-query deadline budgets, recovered handler
	// panics, dropped slow /watch clients, and the shared memory ledger by
	// subsystem.
	QueueDepth        int                    `json:"queueDepth"`
	QueueDropped      int                    `json:"queueDropped"`
	QueueAdmitted     int                    `json:"queueAdmitted,omitempty"`
	QueueSojournDrops int                    `json:"queueSojournDropped,omitempty"`
	QueueCostRejected int                    `json:"queueCostRejected,omitempty"`
	QueuePeakDepth    int                    `json:"queuePeakDepth,omitempty"`
	DeadlineExpired   int64                  `json:"deadlineExpired"`
	PanicsRecovered   int64                  `json:"panicsRecovered"`
	WatchDropped      int64                  `json:"watchDropped,omitempty"`
	MemLedger         map[string]int64       `json:"memLedger,omitempty"`
	MemBytes          int64                  `json:"memBytes,omitempty"`
	PlanHits          uint64                 `json:"planHits"`
	PlanMisses        uint64                 `json:"planMisses"`
	PlanEntries       int                    `json:"planEntries"`
	ViewHits          int                    `json:"viewHits,omitempty"`
	ViewMisses        int                    `json:"viewMisses,omitempty"`
	ViewBytes         int64                  `json:"viewBytes,omitempty"`
	SelectorRuns      int                    `json:"selectorRuns,omitempty"`
	Matview           *pagecache.Maintenance `json:"matview,omitempty"`
	Feed              *changefeed.Counters   `json:"feed,omitempty"`
	Standing          *standing.Counters     `json:"standing,omitempty"`
	Totals            *queryStats            `json:"queryTotals,omitempty"`
	Hosts             []guard.HostHealth     `json:"hosts,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	out := storeStats{
		Stats:           s.cache.Stats(),
		EntryCount:      s.cache.Len(),
		EntryBytes:      s.cache.Bytes(),
		Inflight:        s.inflight.Load(),
		Served:          s.served.Load(),
		Rejected:        s.rejected.Load(),
		Shed:            s.shed.Load(),
		DeadlineExpired: s.deadlineExpired.Load(),
		PanicsRecovered: s.panics.Load(),
		WatchDropped:    s.watchDropped.Load(),
	}
	qc := s.queue.Counters()
	out.QueueDepth = s.queue.Depth()
	out.QueueDropped = qc.Dropped()
	out.QueueAdmitted = qc.Admitted
	out.QueueSojournDrops = qc.SojournDropped
	out.QueueCostRejected = qc.CostRejected
	out.QueuePeakDepth = qc.PeakDepth
	if usages := s.ledger.Snapshot(); len(usages) > 0 {
		out.MemLedger = make(map[string]int64, len(usages))
		for _, u := range usages {
			out.MemLedger[u.Name] = u.Bytes
			out.MemBytes += u.Bytes
		}
	}
	if s.feed != nil {
		fc := s.feed.Counters()
		out.Feed = &fc
	}
	if s.standing != nil {
		sc := s.standing.Counters()
		out.Standing = &sc
	}
	if out.Served > 0 {
		s.mu.Lock()
		tot := newQueryStats(s.totals)
		s.mu.Unlock()
		out.Totals = &tot
	}
	if pc := s.sys.PlanCache(); pc != nil {
		pcs := pc.Counters()
		out.PlanHits = pcs.Hits
		out.PlanMisses = pcs.Misses
		out.PlanEntries = pcs.Entries
	}
	if vm := s.sys.ViewManager(); vm != nil {
		vc := vm.Counters()
		out.ViewHits = vc.Hits
		out.ViewMisses = vc.Misses
		out.ViewBytes = vm.Bytes()
		if st := vm.Store(); st != nil {
			mc := st.Maintenance()
			out.Matview = &mc
		}
	}
	if s.selector != nil {
		out.SelectorRuns = s.selector.Runs()
	}
	if s.guard != nil {
		out.Hosts = s.guard.Snapshot()
	}
	writeJSON(w, http.StatusOK, out)
}

// maxQueryBody caps a query's request body.
const maxQueryBody = 1 << 20

// queryText extracts the query from ?q= or the request body. On failure it
// writes the error response and reports false: 413 for a body over
// maxQueryBody (answering only the prefix that fits would answer a different
// query), 400 for a missing or unreadable one.
func queryText(w http.ResponseWriter, r *http.Request) (string, bool) {
	if q := r.URL.Query().Get("q"); q != "" {
		return q, true
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBody))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: fmt.Sprintf("query body over %d bytes", maxQueryBody)})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	case len(body) == 0:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "no query: pass ?q=… or a request body"})
	default:
		return string(body), true
	}
	return "", false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
