package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ulixes/internal/faults"
	"ulixes/internal/guard"
	"ulixes/internal/site"
)

// leakCheck snapshots the goroutine count and returns a check that waits
// (with grace, for http keep-alive teardown) for the count to drain back to
// the baseline. Register it before the deferred ts.Close(), so the check
// runs after the server is fully shut down: a query goroutine that outlives
// its request — or a /watch stream pinned by a gone client — fails here.
func leakCheck(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d > baseline %d\n%s",
					runtime.NumGoroutine(), base, buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// gate wraps a site and, when armed, blocks every GET (with heads, every
// HEAD instead) until released: it lets a test hold a query in flight
// deterministically. It implements only the plain site.Server surface.
type gate struct {
	inner   site.Server
	heads   bool
	mu      sync.Mutex
	open    chan struct{}
	blocked chan struct{} // signaled once per blocked request
}

func (g *gate) arm() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.open = make(chan struct{})
	g.blocked = make(chan struct{}, 64)
}

func (g *gate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.open != nil {
		close(g.open)
		g.open = nil
	}
}

// wait blocks while the gate is armed.
func (g *gate) wait() {
	g.mu.Lock()
	open, blocked := g.open, g.blocked
	g.mu.Unlock()
	if open != nil {
		blocked <- struct{}{}
		<-open
	}
}

// reached waits until a request is blocked at the gate.
func (g *gate) reached(t *testing.T) {
	t.Helper()
	select {
	case <-g.blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("query never reached the site")
	}
}

func (g *gate) Get(url string) (site.Page, error) {
	if !g.heads {
		g.wait()
	}
	return g.inner.Get(url) //lint:allow fetchgate test double forwarding to the wrapped site
}

func (g *gate) Head(url string) (site.Meta, error) {
	if g.heads {
		g.wait()
	}
	return g.inner.Head(url) //lint:allow fetchgate test double forwarding to the wrapped site
}

// small is the university site every test but the smoke serves.
var small = []string{"-courses", "12", "-profs", "6", "-depts", "2"}

// testConfig parses flags as main does, after the small site's.
func testConfig(t *testing.T, args ...string) config {
	t.Helper()
	cfg, err := parseFlags(append(append([]string(nil), small...), args...))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// start assembles the server cfg describes, and drains and stops it when
// the test ends.
func start(t *testing.T, cfg config) *server {
	t.Helper()
	srv, err := assemble(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.drain()
		srv.stop()
	})
	return srv
}

// newTestServer is the server ulixesd runs with these flags over the small
// site.
func newTestServer(t *testing.T, args ...string) *server {
	t.Helper()
	return start(t, testConfig(t, args...))
}

// gatedServer is newTestServer with a GET gate in front of the site.
func gatedServer(t *testing.T, args ...string) (*server, *gate) {
	t.Helper()
	gs := &gate{}
	cfg := testConfig(t, args...)
	cfg.seam.wrap = func(ms *site.MemSite) site.Server {
		gs.inner = ms
		return gs
	}
	return start(t, cfg), gs
}

// call sends one request to the server's own API and, for a 200 reply and
// a non-nil out, decodes its JSON body into out. It reports the status and
// leaves t alone, so concurrent clients can use it. A request that takes
// over 30 s fails, so a long-poll whose delta never comes cannot hang the
// test.
func call(ts *httptest.Server, method, path, body string, out any) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := ts.Client().Do(req) //lint:allow fetchgate client of our own query API, not a page fetch
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// mustCall is call that fails the test on anything but a decoded 200.
func mustCall(t *testing.T, ts *httptest.Server, method, path, body string, out any) {
	t.Helper()
	if code, err := call(ts, method, path, body, out); err != nil || code != http.StatusOK {
		t.Fatalf("%s %s: status %d, %v", method, path, code, err)
	}
}

// doQuery posts one query and returns the status and, for a 200, the
// answer.
func doQuery(t *testing.T, ts *httptest.Server, q string) (int, queryResponse) {
	t.Helper()
	var out queryResponse
	code, err := call(ts, "POST", "/query", q, &out)
	if err != nil {
		t.Fatal(err)
	}
	return code, out
}

// TestSharedStoreAcrossQueries: the second query over the same relation
// costs zero downloads — every access is a cache hit, and the invariant
// access count matches the cold run.
func TestSharedStoreAcrossQueries(t *testing.T) {
	srv := newTestServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	const q = "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"
	code, cold := doQuery(t, ts, q)
	if code != http.StatusOK {
		t.Fatalf("cold query status %d", code)
	}
	if cold.Stats.Pages == 0 || cold.Stats.CacheHits != 0 {
		t.Fatalf("cold stats %+v, want all downloads", cold.Stats)
	}
	code, warm := doQuery(t, ts, q)
	if code != http.StatusOK {
		t.Fatalf("warm query status %d", code)
	}
	if warm.Stats.Pages != 0 {
		t.Errorf("warm query downloaded %d pages, want 0", warm.Stats.Pages)
	}
	if warm.Stats.CacheHits != cold.Stats.Accesses {
		t.Errorf("warm hits %d, want %d (invariant accesses)", warm.Stats.CacheHits, cold.Stats.Accesses)
	}
	if len(warm.Rows) != len(cold.Rows) {
		t.Errorf("warm rows %d != cold rows %d", len(warm.Rows), len(cold.Rows))
	}
	// The workload totals are the sessions' own counters, and the peak is
	// the shared store's transport's.
	var st storeStats
	mustCall(t, ts, "GET", "/stats", "", &st)
	if st.Totals == nil || st.Totals.Accesses != cold.Stats.Accesses+warm.Stats.Accesses {
		t.Errorf("queryTotals %+v, want accesses %d", st.Totals, cold.Stats.Accesses+warm.Stats.Accesses)
	} else if st.Totals.PeakInFlight < 1 || st.Totals.SharedFetches != 0 {
		t.Errorf("queryTotals %+v, want a peak in-flight of at least 1 and no shared fetches", st.Totals)
	}
}

// TestAdmissionControl: with a single query slot, a second concurrent query
// is rejected immediately with 429 instead of queueing.
func TestAdmissionControl(t *testing.T) {
	srv, gs := gatedServer(t, "-max-queries", "1")
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	gs.arm()
	done := make(chan int, 1)
	go func() {
		code, _ := call(ts, "POST", "/query", "SELECT d.DName FROM Dept d", nil)
		done <- code
	}()
	// Wait until the in-flight query is provably blocked on a page fetch.
	gs.reached(t)

	if code, _ := doQuery(t, ts, "SELECT d.DName FROM Dept d"); code != http.StatusTooManyRequests {
		t.Fatalf("second query status %d, want 429", code)
	}

	gs.release()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("gated query finished with %d, want 200", code)
	}
	// The slot is free again.
	if code, _ := doQuery(t, ts, "SELECT d.DName FROM Dept d"); code != http.StatusOK {
		t.Fatalf("post-release query status %d, want 200", code)
	}
}

// TestPageBudgetRejectsQuery: a query whose plan needs more distinct pages
// than the per-query budget fails with 422 and a structured error.
func TestPageBudgetRejectsQuery(t *testing.T) {
	srv := newTestServer(t, "-page-budget", "2")
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	if code, _ := doQuery(t, ts, "SELECT p.PName, p.Email FROM Professor p"); code != http.StatusUnprocessableEntity {
		t.Fatalf("over-budget query status %d, want 422", code)
	}
}

// TestParseErrorIs400 and friends: client errors are 4xx, not 5xx.
func TestParseErrorIs400(t *testing.T) {
	srv := newTestServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	if code, _ := doQuery(t, ts, "SELEKT nonsense"); code != http.StatusBadRequest {
		t.Fatalf("garbage query status %d, want 400", code)
	}
	if code, _ := doQuery(t, ts, ""); code != http.StatusBadRequest {
		t.Fatalf("empty query status %d, want 400", code)
	}
}

// TestOversizedBodyIs413: a body over the size cap is refused whole. Its
// first MiB is a valid query on its own, so answering the prefix that fits
// would silently answer a different query (2 rows where the full one has 0).
func TestOversizedBodyIs413(t *testing.T) {
	srv := newTestServer(t, "-feed", "hook")
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	body := "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'" +
		strings.Repeat(" ", maxQueryBody) + " AND p.PName = 'nobody'"
	for _, path := range []string{"/query", "/subscribe"} {
		code, err := call(ts, "POST", path, body, nil)
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: status %d, want 413", path, len(body), code)
		}
	}
}

// TestDrainRefusesNewQueries: draining flips /query and /healthz to 503
// while in-flight queries run to completion.
func TestDrainRefusesNewQueries(t *testing.T) {
	defer leakCheck(t)()
	srv, gs := gatedServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	gs.arm()
	done := make(chan int, 1)
	go func() {
		code, _ := call(ts, "POST", "/query", "SELECT d.DName FROM Dept d", nil)
		done <- code
	}()
	gs.reached(t)

	srv.drain()
	if code, _ := doQuery(t, ts, "SELECT d.DName FROM Dept d"); code != http.StatusServiceUnavailable {
		t.Fatalf("query while draining: status %d, want 503", code)
	}
	if code, err := call(ts, "GET", "/healthz", "", nil); err != nil || code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, %v, want 503", code, err)
	}

	// The in-flight query still completes.
	gs.release()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight query finished with %d during drain, want 200", code)
	}
}

// guardedFixture builds a university server whose fetches run through
// chaos → HEAD gate → guard, with the guard and the store on one manual
// clock and retries that do not sleep.
func guardedFixture(t *testing.T) (*server, *faults.Server, *gate, func(time.Duration)) {
	t.Helper()
	var mu sync.Mutex
	now := time.Date(1998, time.March, 23, 0, 0, 0, 0, time.UTC)
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	// The statistics crawl and the warm query leave the EWMA near zero, so
	// exactly two failures (0.5, then 0.75) cross 0.6.
	cfg := testConfig(t, "-max-queries", "4", "-ttl", "10s", "-retries", "3", "-breaker-threshold", "0.6")
	var chaos *faults.Server
	hg := &gate{heads: true}
	cfg.seam = seam{
		wrap: func(ms *site.MemSite) site.Server {
			chaos = faults.New(ms, 7)
			hg.inner = chaos
			return hg
		},
		clock: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		},
		sleeper: &site.InstantSleeper{},
	}
	return start(t, cfg), chaos, hg, advance
}

// TestDrainCompletesDegradedQueriesAgainstFaultySite: queries in flight
// against a site that just went down are not lost by a graceful drain —
// the drain refuses new work immediately and the in-flight queries finish
// 200, degraded, answered from the store's expired copies.
func TestDrainCompletesDegradedQueriesAgainstFaultySite(t *testing.T) {
	defer leakCheck(t)()
	srv, chaos, hg, advance := guardedFixture(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	const q = "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"
	code, warm := doQuery(t, ts, q)
	if code != http.StatusOK || warm.Degraded {
		t.Fatalf("warm query: status %d degraded %v", code, warm.Degraded)
	}

	// Every lease expires and the origin goes down; the revalidating HEAD
	// of the next query blocks at the gate, provably in flight.
	advance(11 * time.Second)
	chaos.SetRules(faults.Rule{Kind: faults.Transient, Rate: 1})
	hg.arm()
	type result struct {
		code int
		body queryResponse
	}
	done := make(chan result, 1)
	go func() {
		var r result
		r.code, _ = call(ts, "POST", "/query", q, &r.body)
		done <- r
	}()
	hg.reached(t)

	srv.drain()
	if code, _ := doQuery(t, ts, q); code != http.StatusServiceUnavailable {
		t.Fatalf("query while draining: status %d, want 503", code)
	}

	// The in-flight query must complete within the drain deadline even
	// though its host is sick: two real failures trip the breaker and the
	// rest of the accesses degrade to the expired copies.
	hg.release()
	select {
	case r := <-done:
		if r.code != http.StatusOK {
			t.Fatalf("in-flight query finished with %d during drain, want 200", r.code)
		}
		if !r.body.Degraded || r.body.Stats.Stale != warm.Stats.Accesses {
			t.Fatalf("in-flight query stats %+v degraded=%v, want all %d accesses stale",
				r.body.Stats, r.body.Degraded, warm.Stats.Accesses)
		}
		if len(r.body.Rows) != len(warm.Rows) {
			t.Fatalf("degraded answer has %d rows, warm had %d", len(r.body.Rows), len(warm.Rows))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight query lost: did not finish within the drain deadline")
	}
}

// TestLowPriorityShedWhileBreakerOpen: while any breaker is open, queries
// marked low priority are refused at admission with 503 (and counted), while
// normal-priority queries keep being served from the stale store. /healthz
// and /stats surface the open breaker.
func TestLowPriorityShedWhileBreakerOpen(t *testing.T) {
	srv, chaos, _, advance := guardedFixture(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	const q = "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"
	if code, _ := doQuery(t, ts, q); code != http.StatusOK {
		t.Fatalf("warm query status %d", code)
	}

	// Low priority is admitted while healthy.
	if code, err := call(ts, "GET", "/query?priority=low&q="+url.QueryEscape(q), "", nil); err != nil || code != http.StatusOK {
		t.Fatalf("healthy low-priority query status %d, %v, want 200", code, err)
	}

	// The origin goes down; the next query trips the breaker and degrades.
	advance(11 * time.Second)
	chaos.SetRules(faults.Rule{Kind: faults.Transient, Rate: 1})
	code, body := doQuery(t, ts, q)
	if code != http.StatusOK || !body.Degraded {
		t.Fatalf("sick-host query: status %d degraded %v, want degraded 200", code, body.Degraded)
	}

	// Low priority is now shed at admission; normal priority still served.
	req, err := http.NewRequest("GET", ts.URL+"/query?q="+url.QueryEscape(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Ulixes-Priority", "low")
	resp, err := ts.Client().Do(req) //lint:allow fetchgate client of our own query API, not a page fetch
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("low-priority query with open breaker: status %d, want 503", resp.StatusCode)
	}
	if code, _ := doQuery(t, ts, q); code != http.StatusOK {
		t.Fatalf("normal-priority query with open breaker: status %d, want 200", code)
	}
	if got := srv.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	// The open breaker is visible on /healthz and /stats.
	var health healthResponse
	mustCall(t, ts, "GET", "/healthz", "", &health)
	if health.Status != "degraded" || health.BreakersOpen != 1 {
		t.Fatalf("healthz %+v, want degraded with one open breaker", health)
	}
	var st storeStats
	mustCall(t, ts, "GET", "/stats", "", &st)
	if len(st.Hosts) != 1 || st.Hosts[0].State != guard.Open.String() {
		t.Fatalf("stats hosts %+v, want one open host", st.Hosts)
	}
	if st.Stale == 0 || st.BreakerFastFails == 0 || st.Shed != 1 {
		t.Fatalf("stats %+v, want stale, fast-fail and shed counters", st)
	}
}

// TestTotalsKeepNoPerQueryURLs: stale answers served under an open breaker
// each list their stale pages, but the server's running totals keep only
// counters — their size does not grow with the queries served.
func TestTotalsKeepNoPerQueryURLs(t *testing.T) {
	srv, chaos, _, advance := guardedFixture(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	const q = "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"
	code, warm := doQuery(t, ts, q)
	if code != http.StatusOK {
		t.Fatalf("warm query status %d", code)
	}
	advance(11 * time.Second)
	chaos.SetRules(faults.Rule{Kind: faults.Transient, Rate: 1})
	const n = 20
	for i := 0; i < n; i++ {
		code, body := doQuery(t, ts, q)
		if code != http.StatusOK || !body.Degraded || len(body.StalePages) == 0 {
			t.Fatalf("query %d: status %d degraded %v, %d stale pages; want a stale answer",
				i, code, body.Degraded, len(body.StalePages))
		}
	}
	srv.mu.Lock()
	tot := srv.totals
	srv.mu.Unlock()
	if len(tot.StalePages) != 0 || len(tot.FailedPages) != 0 || len(tot.Failures) != 0 {
		t.Fatalf("totals retain %d stale pages, %d failed pages, %d failures; want none",
			len(tot.StalePages), len(tot.FailedPages), len(tot.Failures))
	}
	if tot.Stale != n*warm.Stats.Accesses {
		t.Fatalf("totals count %d stale accesses, want %d", tot.Stale, n*warm.Stats.Accesses)
	}
}

// TestQueueAdmissionQueuesThenServes: with a bounded queue configured, a
// request beyond the slot count waits its turn and is served — not 429'd —
// while a request beyond the queue bound is still rejected immediately.
func TestQueueAdmissionQueuesThenServes(t *testing.T) {
	defer leakCheck(t)()
	srv, gs := gatedServer(t, "-max-queries", "1", "-queue", "1", "-queue-wait", "30s")
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	gs.arm()
	first := make(chan int, 1)
	go func() {
		code, _ := call(ts, "POST", "/query", "SELECT d.DName FROM Dept d", nil)
		first <- code
	}()
	gs.reached(t)

	// The second query queues instead of failing.
	second := make(chan int, 1)
	go func() {
		code, _ := call(ts, "POST", "/query", "SELECT d.DName FROM Dept d", nil)
		second <- code
	}()
	waitQueued := time.Now().Add(10 * time.Second)
	for srv.queue.Depth() != 1 {
		if time.Now().After(waitQueued) {
			t.Fatal("second query never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// The third finds slot and queue full: immediate 429.
	if code, _ := doQuery(t, ts, "SELECT d.DName FROM Dept d"); code != http.StatusTooManyRequests {
		t.Fatalf("third query status %d, want 429", code)
	}

	gs.release()
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first query status %d, want 200", code)
	}
	if code := <-second; code != http.StatusOK {
		t.Fatalf("queued query status %d, want 200", code)
	}

	var st storeStats
	mustCall(t, ts, "GET", "/stats", "", &st)
	if st.QueueDepth != 0 || st.QueueDropped != 1 || st.QueueAdmitted != 2 {
		t.Fatalf("queue stats depth=%d dropped=%d admitted=%d, want 0/1/2",
			st.QueueDepth, st.QueueDropped, st.QueueAdmitted)
	}
	if st.QueuePeakDepth != 1 {
		t.Fatalf("queue peak depth = %d, want 1", st.QueuePeakDepth)
	}
}

// TestDeadlineBudget: a client deadline that expires mid-query yields a
// partial (degraded-mode) answer marked deadlineExpired rather than an
// error; a malformed or negative deadline is a 400.
func TestDeadlineBudget(t *testing.T) {
	srv := newTestServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	const q = "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"
	// A negative duration parses, but the budget would read it as "no
	// deadline asked" and run the query unbounded; it is rejected instead.
	for _, bad := range []string{"banana", "-1s"} {
		if code, err := call(ts, "GET", "/query?deadline="+bad+"&q="+url.QueryEscape(q), "", nil); err != nil || code != http.StatusBadRequest {
			t.Fatalf("deadline=%s status %d, %v, want 400", bad, code, err)
		}
	}

	// A deadline that has effectively already passed: the query still
	// answers (degraded execution tolerates the expired context) and the
	// response says the budget ran out.
	var out queryResponse
	mustCall(t, ts, "GET", "/query?deadline=1ns&q="+url.QueryEscape(q), "", &out)
	if !out.DeadlineExpired {
		t.Fatal("response should be marked deadlineExpired")
	}
	if got := srv.deadlineExpired.Load(); got != 1 {
		t.Fatalf("deadlineExpired counter = %d, want 1", got)
	}

	// A generous deadline leaves the answer untouched.
	code, body := doQuery(t, ts, q)
	if code != http.StatusOK || body.DeadlineExpired {
		t.Fatalf("generous deadline: status %d expired %v", code, body.DeadlineExpired)
	}
}

// TestPanicMiddlewareRecovers: a panicking handler becomes one 500 and a
// counter; a panic after the response was committed is swallowed without a
// second write. The server keeps serving either way.
func TestPanicMiddlewareRecovers(t *testing.T) {
	srv := newTestServer(t)

	h := srv.protect(func(w http.ResponseWriter, r *http.Request) {
		panic("synthetic wrapper failure")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/query", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler status %d, want 500", rec.Code)
	}
	if got := srv.panics.Load(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}

	late := srv.protect(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic("after commit")
	})
	rec2 := httptest.NewRecorder()
	late(rec2, httptest.NewRequest("GET", "/query", nil))
	if rec2.Code != http.StatusOK {
		t.Fatalf("committed response rewritten to %d", rec2.Code)
	}
	if got := srv.panics.Load(); got != 2 {
		t.Fatalf("panics counter = %d, want 2", got)
	}

	// The real handler chain still works after recoveries.
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	if code, _ := doQuery(t, ts, "SELECT d.DName FROM Dept d"); code != http.StatusOK {
		t.Fatalf("post-panic query status %d, want 200", code)
	}
}

// TestWatchSlowClientDisconnected: a /watch SSE write that cannot complete
// within the per-write deadline disconnects the stream and is counted, so a
// stalled subscriber cannot pin its goroutine and buffers forever.
func TestWatchSlowClientDisconnected(t *testing.T) {
	defer leakCheck(t)()
	// A deadline that is already past when armed: every write fails the
	// way a stalled client's writes do, without needing to fill socket
	// buffers in a test.
	srv := newTestServer(t, "-feed", "hook", "-watch-write-timeout", "1ns")
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	id, err := srv.standing.Subscribe("SELECT d.DName FROM Dept d")
	if err != nil {
		t.Fatal(err)
	}
	// The initial snapshot delta is waiting, so the stream tries to write
	// immediately and hits the expired deadline.
	_, _ = call(ts, "GET", "/watch?sse=1&after=0&id="+strconv.Itoa(id), "", nil)
	deadline := time.Now().Add(5 * time.Second)
	for srv.watchDropped.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchDropped never incremented")
		}
		time.Sleep(time.Millisecond)
	}
	// The buffered-delta bytes charged during the failed write were
	// refunded when the stream died.
	if got := srv.ledger.Account("watchBuffers").Bytes(); got != 0 {
		t.Fatalf("watchBuffers ledger = %d after disconnect, want 0", got)
	}
}

// TestStatsExposesOverloadSurface: /stats reports the admission queue, the
// deadline/panic counters and the per-subsystem memory ledger.
func TestStatsExposesOverloadSurface(t *testing.T) {
	srv := newTestServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	if code, _ := doQuery(t, ts, "SELECT p.PName FROM Professor p"); code != http.StatusOK {
		t.Fatal("query failed")
	}
	var st storeStats
	mustCall(t, ts, "GET", "/stats", "", &st)
	if st.QueueDepth != 0 || st.QueueAdmitted == 0 {
		t.Fatalf("queue stats %+v, want admitted > 0, depth 0", st)
	}
	if st.DeadlineExpired != 0 || st.PanicsRecovered != 0 {
		t.Fatalf("counters %+v, want zero deadline/panic", st)
	}
	if st.MemLedger["pagecache"] == 0 || st.MemBytes == 0 {
		t.Fatalf("memLedger %v (total %d), want pagecache bytes accounted", st.MemLedger, st.MemBytes)
	}
	if st.MemLedger["pagecache"] != st.EntryBytes {
		t.Fatalf("ledger pagecache %d != store bytes %d", st.MemLedger["pagecache"], st.EntryBytes)
	}
}

// TestTTLZeroStoreReportsDanglingLinks: under -ttl 0 the server's store
// revalidates every access but is not a materialized view, so a page the
// site no longer has is never dropped from an answer in silence: it fails
// a strict query and is listed in a degraded query's failures.
func TestTTLZeroStoreReportsDanglingLinks(t *testing.T) {
	for _, degraded := range []bool{false, true} {
		args := []string{"-ttl", "0", "-views-auto"}
		if degraded {
			args = append(args, "-degraded")
		}
		cfg := testConfig(t, args...)
		var ms *site.MemSite
		cfg.seam.wrap = func(m *site.MemSite) site.Server {
			ms = m
			return m
		}
		srv := start(t, cfg)
		ts := httptest.NewServer(srv.handler())

		const q = "SELECT p.PName, p.Email FROM Professor p"
		code, warm := doQuery(t, ts, q)
		if code != http.StatusOK {
			t.Fatalf("degraded=%v: warm query status %d", degraded, code)
		}
		var victim string
		for _, u := range ms.URLs() {
			if scheme, _ := ms.SchemeOf(u); scheme == "ProfPage" {
				victim = u
				break
			}
		}
		if !ms.RemovePage(victim) {
			t.Fatalf("no professor page to remove")
		}
		code, out := doQuery(t, ts, q)
		switch {
		case !degraded && code != http.StatusInternalServerError:
			t.Errorf("strict query over a dangling link: status %d, want 500", code)
		case degraded && code != http.StatusOK:
			t.Errorf("degraded query over a dangling link: status %d, want 200", code)
		case degraded && (!out.Degraded || len(out.Failures) != 1 || out.Failures[0].URL != victim):
			t.Errorf("degraded answer: degraded %v, failures %+v; want %s listed", out.Degraded, out.Failures, victim)
		case degraded && len(out.Rows) != len(warm.Rows)-1:
			t.Errorf("degraded answer has %d rows, want %d", len(out.Rows), len(warm.Rows)-1)
		}
		ts.Close()
	}
}
