package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ulixes"
	"ulixes/internal/changefeed"
	"ulixes/internal/nalg"
	"ulixes/internal/nested"
	"ulixes/internal/optimizer"
	"ulixes/internal/overload"
	"ulixes/internal/pagecache"
	"ulixes/internal/plancache"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
	"ulixes/internal/standing"
)

// span is one timed call into a layer. Spans of one request share Req; Parent
// is the span that caused this one (0 for a request's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory. A nil recorder records nothing, which is
// the untraced side of the tracing-overhead comparison.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func (r *recorder) start(req, parent int, name string) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// covered returns how much of [from, to) the intervals cover, counting
// overlaps once.
func covered(from, to int64, intervals [][2]int64) int64 {
	sort.Slice(intervals, func(i, j int) bool { return intervals[i][0] < intervals[j][0] })
	var total int64
	at := from
	for _, iv := range intervals {
		lo, hi := iv[0], iv[1]
		if lo < at {
			lo = at
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// selfTimes returns, per span ID, the span's duration minus the part of it
// that its child spans cover.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = time.Duration(s.End - s.Start - covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

type spanRef struct{ req, id int }
type spanKey struct{}

func withSpan(ctx context.Context, req, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{req, id})
}

// timedServer is the timing site.Server around the in-memory site: a span and
// the counts of every GET and HEAD that reaches the site.
type timedServer struct {
	inner *site.MemSite
	rec   *recorder // swapped between passes; the replay is sequential

	gets, heads, bytes atomic.Int64
	inflight, peak     atomic.Int64
}

func (t *timedServer) Get(url string) (site.Page, error) {
	return t.GetContext(context.Background(), url)
}

func (t *timedServer) Head(url string) (site.Meta, error) {
	return t.HeadContext(context.Background(), url)
}

// GetContext implements site.ContextServer, so the guard hands down the
// context that names the calling span.
func (t *timedServer) GetContext(ctx context.Context, url string) (site.Page, error) {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	id := t.rec.start(ref.req, ref.id, "site.get")
	n := t.inflight.Add(1)
	for p := t.peak.Load(); n > p && !t.peak.CompareAndSwap(p, n); p = t.peak.Load() {
	}
	page, err := t.inner.Get(url) //lint:allow fetchgate timing decorator forwarding to the wrapped site
	t.inflight.Add(-1)
	t.rec.end(id)
	t.gets.Add(1)
	t.bytes.Add(int64(len(page.HTML)))
	return page, err
}

// HeadContext implements site.ContextHeadServer.
func (t *timedServer) HeadContext(ctx context.Context, url string) (site.Meta, error) {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	id := t.rec.start(ref.req, ref.id, "site.head")
	meta, err := t.inner.Head(url) //lint:allow fetchgate timing decorator forwarding to the wrapped site
	t.rec.end(id)
	t.heads.Add(1)
	return meta, err
}

// timedSource is the timing site.PageSource around one query's
// pagecache.Session, handed to nalg.EvalWithOptions.
type timedSource struct {
	inner       site.PageSource
	rec         *recorder
	req, parent int
}

func (t *timedSource) FetchCtx(ctx context.Context, scheme, url string) (nested.Tuple, error) {
	id := t.rec.start(t.req, t.parent, "pagecache.fetch")
	defer t.rec.end(id)
	return t.inner.FetchCtx(withSpan(ctx, t.req, id), scheme, url)
}

func (t *timedSource) FetchAllCtx(ctx context.Context, scheme string, urls []string) ([]nested.Tuple, error) {
	id := t.rec.start(t.req, t.parent, "pagecache.fetch_all")
	defer t.rec.end(id)
	return t.inner.FetchAllCtx(withSpan(ctx, t.req, id), scheme, urls)
}

// allocMeter reads the process's allocation counters around a call. The
// replay runs one request at a time, so the difference belongs to the call.
type allocMeter struct{ mallocs, bytes uint64 }

func startAllocs() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter{m.Mallocs, m.TotalAlloc}
}

func (a allocMeter) since() (mallocs, bytes float64) {
	now := startAllocs()
	return float64(now.mallocs - a.mallocs), float64(now.bytes - a.bytes)
}

// planObs is one Algorithm 1 run seen from outside.
type planObs struct {
	atoms                      int
	ms, candidates, allocs, by float64
}

// queryObs is one replayed query's ledger.
type queryObs struct {
	req                             int
	accesses, fetches, hits, lights int
	tuples                          int
	evalAllocs, estimated, wallMs   float64
	gets, heads                     int64
}

// tracer replays a workload's queries in-process, doing the steps of a
// request itself (what engine.QueryCQOptsCtx and ulixesd's handler do) with a
// span around each call into a layer.
type tracer struct {
	env     *libEnv
	srv     *timedServer
	rec     *recorder
	opt     *optimizer.Optimizer
	plans   *plancache.Cache
	queue   *overload.Queue
	cache   *pagecache.Cache
	latency time.Duration // of the site: rtt_navigate only
	fresh   bool          // rtt_navigate: a fresh page store per query
	workers int

	nextReq int
	parent  int // span the next request hangs under (a mutation), else 0
	plansOb []planObs
	queries []queryObs
	refused int
	// mismatches counts replayed queries whose session ledger did not reconcile.
	mismatches int
}

func newTracer(workload string) (*tracer, error) {
	t := &tracer{}
	if workload == "rtt_navigate" {
		t.latency, t.fresh, t.workers = rttLatency, true, rttWorkers
	}
	env, err := newLibEnv(t.latency, func(mem *site.MemSite) site.Server {
		t.srv = &timedServer{inner: mem}
		return t.srv
	})
	if err != nil {
		return nil, err
	}
	t.env = env
	t.opt = optimizer.New(env.views, env.sys.Stats())
	t.plans = plancache.New(plancache.Config{})
	// ulixesd's defaults: 8 slots, no queue.
	t.queue = overload.NewQueue(overload.QueueConfig{Slots: 8})
	t.cache = t.newCache()
	return t, nil
}

func (t *tracer) newCache() *pagecache.Cache {
	return pagecache.New(t.env.server, t.env.univ.Scheme, pagecache.Config{
		DefaultTTL: pagecache.Forever, Clock: site.LogicalClock(), Workers: t.workers,
	})
}

// query replays one request from its text.
func (t *tracer) query(ctx context.Context, text string, atoms int) (*ulixes.Relation, error) {
	t.nextReq++
	req := t.nextReq
	root := t.rec.start(req, t.parent, "request")
	defer t.rec.end(root)
	id := t.rec.start(req, root, "cq.parse")
	q, err := ulixes.ParseQuery(text)
	t.rec.end(id)
	if err != nil {
		return nil, err
	}
	return t.answer(ctx, req, root, q, atoms)
}

// answer is the request after parsing: plan, admission, evaluation,
// serialisation.
func (t *tracer) answer(ctx context.Context, req, root int, q *ulixes.Query, atoms int) (*ulixes.Relation, error) {
	id := t.rec.start(req, root, "plancache.prepare")
	res, _, err := t.plans.Prepare(q, t.env.sys.Stats(), fmt.Sprintf("%+v", t.opt.Opts), func(canon *ulixes.Query) (*optimizer.Result, error) {
		oid := t.rec.start(req, id, "optimizer.optimize")
		allocs, start := startAllocs(), time.Now()
		r, err := t.opt.Optimize(canon)
		took := time.Since(start)
		t.rec.end(oid)
		n, by := allocs.since()
		if err == nil {
			t.plansOb = append(t.plansOb, planObs{atoms: atoms, ms: ms(took), candidates: float64(len(r.Candidates)), allocs: n, by: by})
		}
		return r, err
	})
	t.rec.end(id)
	if err != nil {
		return nil, err
	}

	id = t.rec.start(req, root, "overload.acquire")
	ticket, err := t.queue.Acquire(ctx, overload.Normal, res.Best.Cost)
	t.rec.end(id)
	if err != nil {
		t.refused++
		return nil, err
	}
	defer ticket.Release()

	expr := res.Best.Expr
	id = t.rec.start(req, root, "nalg.check")
	diags := nalg.Check(expr, t.env.univ.Scheme)
	t.rec.end(id)
	if !nalg.Computable(expr) || len(diags) > 0 {
		return nil, fmt.Errorf("plan not executable: %s", expr)
	}

	cache := t.cache
	if t.fresh {
		cache = t.newCache()
	}
	sess := cache.NewSession(pagecache.SessionOptions{Workers: t.workers})
	model := t.opt.Model()
	gets, heads := t.srv.gets.Load(), t.srv.heads.Load()
	id = t.rec.start(req, root, "nalg.eval")
	allocs := startAllocs()
	rel, err := nalg.EvalWithOptions(expr, t.env.univ.Scheme,
		nalg.FetcherSource{F: &timedSource{inner: sess, rec: t.rec, req: req, parent: id}, Ctx: ctx},
		nalg.EvalOptions{Pipelined: true, Workers: t.workers, EstimateCard: func(x nalg.Expr) (float64, bool) {
			est, err := model.Estimate(x)
			return est.Card, err == nil
		}})
	t.rec.end(id)
	evalAllocs, _ := allocs.since()
	if err != nil {
		return nil, err
	}

	id = t.rec.start(req, root, "serialize")
	cols, rows := relationRows(rel)
	_, err = json.Marshal(struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}{cols, rows})
	t.rec.end(id)
	if err != nil {
		return nil, err
	}

	// The session's ledger should reconcile (accesses = fetches + hits +
	// revalidations + stale). At the seed it sometimes does not: two pipeline
	// branches asking one session for the same page at once are both counted
	// as hits. That is reported as a count, not failed, so the benchmark does
	// not inherit the flake; ulixesd's own "accesses" cannot show it, being
	// computed as the sum.
	st := sess.Stats()
	if st.Accesses != st.Fetches+st.CacheHits+st.Revalidations+st.Stale {
		t.mismatches++
	}
	t.queries = append(t.queries, queryObs{
		req: req, accesses: st.Accesses, fetches: st.Fetches, hits: st.CacheHits, lights: st.LightConnections,
		tuples: rel.Len(), evalAllocs: evalAllocs, estimated: res.Best.Cost,
		gets: t.srv.gets.Load() - gets, heads: t.srv.heads.Load() - heads,
	})
	return rel, nil
}

// probePages times the page-level layers directly on a sample of pages: a
// store miss (download plus wrap), a store hit, and a guarded against a
// direct GET. The site's latency is off meanwhile, so the differences are the
// layers' own time.
func (t *tracer) probePages(ctx context.Context, layers map[string]metric) error {
	urls := t.env.mem.URLs()
	sort.Strings(urls)
	const sampleSize = 200
	if len(urls) > sampleSize {
		step := len(urls) / sampleSize
		var picked []string
		for i := 0; i < len(urls); i += step {
			picked = append(picked, urls[i])
		}
		urls = picked
	}
	t.env.mem.SetLatency(0)
	defer t.env.mem.SetLatency(t.latency)

	rec := &recorder{epoch: time.Now()}
	t.srv.rec = rec
	cache := t.newCache()
	var hit, guarded, direct []float64
	for _, u := range urls {
		scheme, _ := t.env.mem.SchemeOf(u)
		id := rec.start(0, 0, "pagecache.access")
		_, err := cache.Access(withSpan(ctx, 0, id), scheme, u)
		rec.end(id)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := cache.Access(ctx, scheme, u); err != nil {
			return err
		}
		hit = append(hit, us(time.Since(start)))
	}
	t.srv.rec = nil
	for _, u := range urls {
		start := time.Now()
		if _, err := t.env.server.Get(u); err != nil { //lint:allow fetchgate timing the guard layer itself, outside any query
			return err
		}
		guarded = append(guarded, us(time.Since(start)))
		start = time.Now()
		if _, err := t.env.mem.Get(u); err != nil { //lint:allow fetchgate timing the bare site as the guard's baseline
			return err
		}
		direct = append(direct, us(time.Since(start)))
	}
	self := selfTimes(rec.spans)
	var wrap []float64
	for _, s := range rec.spans {
		if s.Name == "pagecache.access" {
			wrap = append(wrap, us(self[s.ID]))
		}
	}
	layers["pagecache.hit_us"] = metric{median(hit), "us"}
	layers["hypertext.wrap_us_per_page"] = metric{median(wrap), "us"}
	layers["guard.overhead_us"] = metric{median(guarded) - median(direct), "us"}
	return nil
}

// traceRun is the traced run of one workload: an in-process replay of a fixed
// sample of its queries, alternately untraced and traced, then a short run of
// the workload itself for the numbers only the server can give.
func traceRun(ctx context.Context, root, workload string, seed int64, seconds float64) (*outcome, error) {
	g, err := loadGolden(root, workload)
	if err != nil {
		return nil, err
	}
	t, err := newTracer(workload)
	if err != nil {
		return nil, err
	}
	var fails failures
	out := newOutcome(workload)

	// The sample: one instantiation of each suite shape, or every fourth
	// cold shape (a full cold pass, planned twice, would outlast the run).
	var sampleQ []query
	if workload == "cold_shapes" {
		shapes, err := coldShapes(seed, int(coldPerSec*seconds))
		if err != nil {
			return nil, err
		}
		for i := 0; i < len(shapes); i += 4 {
			sampleQ = append(sampleQ, shapes[i])
		}
		for _, text := range primingScans {
			if _, err := t.query(ctx, text, 1); err != nil {
				return nil, err
			}
		}
	} else {
		rng := rand.New(rand.NewSource(seed))
		for i := range suite {
			sampleQ = append(sampleQ, suiteQuery(i, rng))
		}
		for _, q := range sampleQ { // priming: plan each shape, fill the store
			if _, err := t.query(ctx, q.Text, q.Atoms); err != nil {
				return nil, err
			}
		}
	}

	// mutate_mix: the push pipeline as cmd/ulixesd wires it, one mutation per
	// pass of ten reads (the 20/s writer against a few hundred reads a second).
	var mutator *sitegen.Mutator
	var feed *changefeed.Monitor
	var subs *standing.Registry
	var reanswerMs []float64
	if workload == "mutate_mix" {
		feed = changefeed.New(t.env.server, changefeed.Config{Clock: time.Now})
		feed.Subscribe(changefeed.SinkFunc(func(ev changefeed.Event) {
			if ev.Kind == site.ChangeTouched {
				t.cache.MarkStale(ev.URL)
				return
			}
			t.cache.Invalidate(ev.URL)
		}))
		subs = standing.New(standing.Config{
			Views: t.env.views, Clock: time.Now,
			Answer: func(q *ulixes.Query) (*ulixes.Relation, error) {
				t.nextReq++
				id := t.rec.start(t.nextReq, t.parent, "standing.reanswer")
				start, replayed := time.Now(), len(t.queries)
				rel, err := t.answer(ctx, t.nextReq, id, q, len(q.From))
				t.rec.end(id)
				reanswerMs = append(reanswerMs, ms(time.Since(start)))
				t.queries = t.queries[:replayed] // a re-answer is not one of the sample's queries
				return rel, err
			},
		})
		feed.Subscribe(subs)
		feed.AttachMemSite(t.env.mem)
		for _, text := range standingQueries {
			if _, err := subs.Subscribe(text); err != nil {
				return nil, err
			}
		}
		mutator = sitegen.NewMutator(t.env.univ, t.env.mem, seed)
		reanswerMs = nil // the snapshots are set-up, not re-answers
	}

	// pass replays the sample once and returns how long it took and what the
	// plan cache counted.
	pass := func(rec *recorder) (took time.Duration, plans plancache.Counters, err error) {
		t.rec, t.srv.rec = rec, rec
		if workload == "cold_shapes" {
			t.plans = plancache.New(plancache.Config{}) // every pass plans every shape
		}
		before, start := t.plans.Counters(), time.Now()
		if mutator != nil {
			t.parent = rec.start(0, 0, "mutate")
			mutator.Step()
			rec.end(t.parent)
			t.parent = 0
		}
		for _, q := range sampleQ {
			rel, err := t.query(ctx, q.Text, q.Atoms)
			if err != nil {
				return 0, plans, fmt.Errorf("%s: %w", q.Text, err)
			}
			out.Attempted++
			if mutator != nil && mutableShape[suite[q.Shape].Name] {
				continue
			}
			if want, err := g.lookup(q.Text); err != nil || hashRelation(rel) != want {
				fails.add("traced replay: wrong answer for %s (%v)", q.Text, err)
			}
		}
		after := t.plans.Counters()
		return time.Since(start), plancache.Counters{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}, nil
	}

	// Alternate untraced and traced passes: at least one of each, at most
	// twenty, for about four tenths of the run's time.
	rec := &recorder{epoch: time.Now()}
	t.refused, t.mismatches = 0, 0
	storeBefore := t.cache.Stats()
	var feedBefore changefeed.Counters
	var subsBefore standing.Counters
	if feed != nil {
		feedBefore, subsBefore = feed.Counters(), subs.Counters()
	}
	t.srv.peak.Store(0)
	budget := time.Duration(0.4 * seconds * float64(time.Second))
	var plain, traced []float64
	var tracedQueries []queryObs
	var plansSeen []planObs
	var hits, misses uint64
	tracedPass := func() error {
		t.queries, t.plansOb = nil, nil
		took, plans, err := pass(rec)
		traced = append(traced, ms(took))
		tracedQueries = append(tracedQueries, t.queries...)
		plansSeen = append(plansSeen, t.plansOb...)
		hits, misses = hits+plans.Hits, misses+plans.Misses
		return err
	}
	plainPass := func() error {
		took, _, err := pass(nil)
		plain = append(plain, ms(took))
		return err
	}
	for began := time.Now(); len(traced) < 1 || (len(traced) < 20 && time.Since(began) < budget); {
		// Whichever pass goes second finds warmer caches, so take turns.
		first, second := plainPass, tracedPass
		if len(traced)%2 == 1 {
			first, second = tracedPass, plainPass
		}
		if err := first(); err != nil {
			return nil, err
		}
		if err := second(); err != nil {
			return nil, err
		}
	}
	store := t.cache.Stats()

	layersFromSpans(out.Layers, rec.spans, tracedQueries)
	L := out.Layers
	L["plancache.hit_ratio"] = metric{ratio(float64(hits), float64(hits+misses)), "ratio"}
	planLayers(L, plansSeen)
	L["overload.refused"] = metric{float64(t.refused), "count"}
	L["pagecache.invalidations"] = metric{float64(store.Invalidations - storeBefore.Invalidations), "count"}
	L["pagecache.ledger_mismatches"] = metric{float64(t.mismatches), "count"}
	L["site.peak_inflight"] = metric{float64(t.srv.peak.Load()), "count"}
	L["hypertext.bytes_per_page"] = metric{ratio(float64(t.srv.bytes.Load()), float64(t.srv.gets.Load())), "B"}
	L["trace_overhead_ratio"] = metric{median(traced)/median(plain) - 1, "ratio"}
	L["changefeed.events"], L["standing.reanswer_ms"] = metric{0, "count"}, metric{0, "ms"}
	L["standing.reanswers_per_event"], L["standing.deltas"] = metric{0, "ratio"}, metric{0, "count"}
	if feed != nil {
		fc, sc := feed.Counters(), subs.Counters()
		events := float64(fc.Events - feedBefore.Events)
		L["changefeed.events"] = metric{events, "count"}
		L["standing.reanswer_ms"] = metric{median(reanswerMs), "ms"}
		L["standing.reanswers_per_event"] = metric{ratio(float64(sc.Reanswers-subsBefore.Reanswers), events), "ratio"}
		L["standing.deltas"] = metric{float64(sc.Deltas - subsBefore.Deltas), "count"}
	}
	if err := t.probePages(ctx, L); err != nil {
		return nil, err
	}

	// Workload validity, from the layers' own counts.
	hr, gets, pages := L["plancache.hit_ratio"].Value, L["site.gets_per_query"].Value, L["pages_per_query"].Value
	switch workload {
	case "cold_shapes":
		if hr != 0 {
			fails.add("workload invalid: plancache.hit_ratio %.3f, want 0", hr)
		}
	case "rtt_navigate":
		if gets != pages {
			fails.add("workload invalid: site.gets_per_query %.2f != pages_per_query %.2f", gets, pages)
		}
		fallthrough
	default:
		if hr < 0.99 {
			fails.add("workload invalid: plancache.hit_ratio %.3f, want >= 0.99", hr)
		}
	}
	if workload == "warm_repeat" && gets != 0 {
		fails.add("workload invalid: site.gets_per_query %.2f, want 0", gets)
	}
	if t.refused != 0 {
		fails.add("run invalid: overload.refused %d", t.refused)
	}
	if err := writeSpans(root, workload, seed, rec.spans); err != nil {
		return nil, err
	}

	// The numbers only the running server gives: its overhead beyond plan and
	// evaluation, its peak memory, and the delta lag.
	L["ulixesd.overhead_ms"], L["ulixesd.rss_mb"] = metric{0, "ms"}, metric{0, "MB"}
	L["standing.delta_lag_p50_ms"] = metric{0, "ms"}
	if workload != "rtt_navigate" {
		short, err := runWorkload(ctx, root, workload, seed, seconds/4)
		if err != nil {
			return nil, err
		}
		L["ulixesd.overhead_ms"] = short.Extra["ulixesd.overhead_ms"]
		L["ulixesd.rss_mb"] = short.Extra["ulixesd.rss_mb"]
		if lag, ok := short.Extra["delta_lag_p50_ms"]; ok {
			L["standing.delta_lag_p50_ms"] = lag
		}
		out.Attempted += short.Attempted
		out.Failed += short.Failed
		out.Errors = append(out.Errors, short.Errors...)
	}
	fails.into(out)
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// planLayers summarises the Algorithm 1 runs of the traced passes.
func planLayers(L map[string]metric, plans []planObs) {
	byAtoms := map[int][]float64{}
	var all, cands, allocs, bytes []float64
	for _, p := range plans {
		all = append(all, p.ms)
		byAtoms[p.atoms] = append(byAtoms[p.atoms], p.ms)
		cands, allocs, bytes = append(cands, p.candidates), append(allocs, p.allocs), append(bytes, p.by)
	}
	L["optimizer.plan_ms"] = metric{median(all), "ms"}
	for _, n := range []int{2, 3, 4} {
		L[fmt.Sprintf("optimizer.plan_ms_%datom", n)] = metric{median(byAtoms[n]), "ms"}
	}
	L["optimizer.candidates"] = metric{mean(cands), "count"}
	L["optimizer.allocs_per_plan"] = metric{mean(allocs), "count"}
	L["optimizer.bytes_per_plan"] = metric{mean(bytes), "B"}
}

// layersFromSpans derives the span-timed metrics and the per-query ledgers of
// the traced passes.
func layersFromSpans(L map[string]metric, spans []span, queries []queryObs) {
	self := selfTimes(spans)
	byName := map[string][]float64{}
	hasChild := map[int]bool{}
	getsOf := map[int][][2]int64{} // request → its site.get intervals
	for _, s := range spans {
		hasChild[s.Parent] = true
		if s.Name == "site.get" {
			getsOf[s.Req] = append(getsOf[s.Req], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range spans {
		switch s.Name {
		case "plancache.prepare":
			if !hasChild[s.ID] { // no optimizer.optimize child: a hit
				byName["plancache.hit"] = append(byName["plancache.hit"], us(s.dur()))
			}
		case "nalg.eval":
			byName["nalg.eval_self"] = append(byName["nalg.eval_self"], us(self[s.ID]))
		default:
			byName[s.Name] = append(byName[s.Name], us(s.dur()))
		}
	}
	L["cq.parse_us"] = metric{median(byName["cq.parse"]), "us"}
	L["plancache.hit_us"] = metric{median(byName["plancache.hit"]), "us"}
	L["overload.sojourn_ms"] = metric{median(byName["overload.acquire"]) / 1000, "ms"}
	L["nalg.eval_self_us"] = metric{median(byName["nalg.eval_self"]), "us"}

	var accesses, fetches, hits, lights, tuples, allocs, gets, heads, waitSum, waitCrit, ce []float64
	for _, q := range queries {
		accesses, fetches = append(accesses, float64(q.accesses)), append(fetches, float64(q.fetches))
		hits, lights = append(hits, float64(q.hits)), append(lights, float64(q.lights))
		tuples, allocs = append(tuples, float64(q.tuples)), append(allocs, q.evalAllocs)
		gets, heads = append(gets, float64(q.gets)), append(heads, float64(q.heads))
		var sum, lo, hi int64
		for i, iv := range getsOf[q.req] {
			sum += iv[1] - iv[0]
			if i == 0 || iv[0] < lo {
				lo = iv[0]
			}
			if iv[1] > hi {
				hi = iv[1]
			}
		}
		waitSum = append(waitSum, ms(time.Duration(sum)))
		waitCrit = append(waitCrit, ms(time.Duration(covered(lo, hi, getsOf[q.req]))))
		if q.estimated > 0 {
			ce = append(ce, float64(q.accesses)/q.estimated)
		}
	}
	L["pagecache.hit_ratio"] = metric{ratio(sum(hits), sum(accesses)), "ratio"}
	L["pagecache.fetches_per_query"] = metric{mean(fetches), "count"}
	L["site.get_wait_sum_ms"] = metric{mean(waitSum), "ms"}
	L["site.get_wait_critical_ms"] = metric{mean(waitCrit), "ms"}
	L["site.gets_per_query"] = metric{mean(gets), "count"}
	L["site.heads_per_query"] = metric{mean(heads), "count"}
	L["nalg.tuples_out"] = metric{mean(tuples), "count"}
	L["nalg.allocs_per_tuple"] = metric{ratio(sum(allocs), sum(tuples)), "count"}
	L["pages_per_query"] = metric{mean(accesses), "count"}
	L["light_conns_per_query"] = metric{mean(lights), "count"}
	L["ce_ratio"] = metric{mean(ce), "ratio"}
}

// writeSpans writes the traced passes' spans to benchmark/out.
func writeSpans(root, workload string, seed int64, spans []span) error {
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
