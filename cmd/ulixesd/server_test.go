package main

import (
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

	"ulixes"
	"ulixes/internal/faults"
	"ulixes/internal/guard"
	"ulixes/internal/overload"
	"ulixes/internal/pagecache"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
	"ulixes/internal/standing"
	"ulixes/internal/view"
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

// gateServer wraps a site and, when armed, blocks every GET until released
// — it lets a test hold a query in flight deterministically.
type gateServer struct {
	*site.MemSite
	mu      sync.Mutex
	gate    chan struct{}
	blocked chan struct{} // signaled once per blocked GET
}

func (g *gateServer) arm() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gate = make(chan struct{})
	g.blocked = make(chan struct{}, 64)
}

func (g *gateServer) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
}

func (g *gateServer) Get(url string) (site.Page, error) {
	g.mu.Lock()
	gate, blocked := g.gate, g.blocked
	g.mu.Unlock()
	if gate != nil {
		blocked <- struct{}{}
		<-gate
	}
	return g.MemSite.Get(url) //lint:allow fetchgate test double forwarding to the wrapped site
}

// newTestServer builds a small university system over the given site
// wrapper with a shared store.
func newTestServer(t *testing.T, maxQueries, pageBudget int, wrap func(*site.MemSite) site.Server) *server {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.UniversityParams{Courses: 12, Profs: 6, Depts: 2})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sv site.Server = ms
	if wrap != nil {
		sv = wrap(ms)
	}
	ledger := overload.NewLedger()
	cache := pagecache.New(sv, u.Scheme, pagecache.Config{
		DefaultTTL: pagecache.Forever,
		Clock:      site.LogicalClock(),
		Meter:      ledger.Account("pagecache"),
	})
	sys, err := ulixes.Open(ms, u.Scheme, view.UniversityView(u.Scheme))
	if err != nil {
		t.Fatal(err)
	}
	sys.SetExec(ulixes.ExecOptions{Cache: cache, PageBudget: pageBudget})
	srv := newServer(sys, cache, maxQueries)
	srv.ledger = ledger
	return srv
}

func doQuery(t *testing.T, ts *httptest.Server, q string) (*http.Response, queryResponse) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/query", "text/plain", strings.NewReader(q)) //lint:allow fetchgate client of our own query API, not a page fetch
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out queryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// TestSharedStoreAcrossQueries: the second query over the same relation
// costs zero downloads — every access is a cache hit, and the invariant
// access count matches the cold run.
func TestSharedStoreAcrossQueries(t *testing.T) {
	srv := newTestServer(t, 4, 0, nil)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	const q = "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"
	resp, cold := doQuery(t, ts, q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold query status %d", resp.StatusCode)
	}
	if cold.Stats.Pages == 0 || cold.Stats.CacheHits != 0 {
		t.Fatalf("cold stats %+v, want all downloads", cold.Stats)
	}
	resp, warm := doQuery(t, ts, q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm query status %d", resp.StatusCode)
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
	if err := getTestJSON(t, ts, "/stats", &st); err != nil {
		t.Fatal(err)
	}
	if st.Totals == nil || st.Totals.Accesses != cold.Stats.Accesses+warm.Stats.Accesses {
		t.Errorf("queryTotals %+v, want accesses %d", st.Totals, cold.Stats.Accesses+warm.Stats.Accesses)
	} else if st.Totals.PeakInFlight < 1 || st.Totals.SharedFetches != 0 {
		t.Errorf("queryTotals %+v, want a peak in-flight of at least 1 and no shared fetches", st.Totals)
	}
}

// TestAdmissionControl: with a single query slot, a second concurrent query
// is rejected immediately with 429 instead of queueing.
func TestAdmissionControl(t *testing.T) {
	var gs *gateServer
	srv := newTestServer(t, 1, 0, func(ms *site.MemSite) site.Server {
		gs = &gateServer{MemSite: ms}
		return gs
	})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	gs.arm()
	done := make(chan int, 1)
	go func() {
		resp, _ := doQuery(t, ts, "SELECT d.DName FROM Dept d")
		done <- resp.StatusCode
	}()
	// Wait until the in-flight query is provably blocked on a page fetch.
	select {
	case <-gs.blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("query never reached the site")
	}

	resp, _ := doQuery(t, ts, "SELECT d.DName FROM Dept d")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second query status %d, want 429", resp.StatusCode)
	}

	gs.release()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("gated query finished with %d, want 200", code)
	}
	// The slot is free again.
	resp, _ = doQuery(t, ts, "SELECT d.DName FROM Dept d")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release query status %d, want 200", resp.StatusCode)
	}
}

// TestPageBudgetRejectsQuery: a query whose plan needs more distinct pages
// than the per-query budget fails with 422 and a structured error.
func TestPageBudgetRejectsQuery(t *testing.T) {
	srv := newTestServer(t, 4, 2, nil)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	resp, _ := doQuery(t, ts, "SELECT p.PName, p.Email FROM Professor p")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("over-budget query status %d, want 422", resp.StatusCode)
	}
}

// TestParseErrorIs400 and friends: client errors are 4xx, not 5xx.
func TestParseErrorIs400(t *testing.T) {
	srv := newTestServer(t, 4, 0, nil)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	resp, _ := doQuery(t, ts, "SELEKT nonsense")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage query status %d, want 400", resp.StatusCode)
	}
	resp, _ = doQuery(t, ts, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty query status %d, want 400", resp.StatusCode)
	}
}

// TestOversizedBodyIs413: a body over the size cap is refused whole. Its
// first MiB is a valid query on its own, so answering the prefix that fits
// would silently answer a different query (2 rows where the full one has 0).
func TestOversizedBodyIs413(t *testing.T) {
	srv, _ := standingFixture(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	body := "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'" +
		strings.Repeat(" ", maxQueryBody) + " AND p.PName = 'nobody'"
	for _, path := range []string{"/query", "/subscribe"} {
		resp, err := ts.Client().Post(ts.URL+path, "text/plain", strings.NewReader(body)) //lint:allow fetchgate client of our own query API, not a page fetch
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: status %d, want 413", path, len(body), resp.StatusCode)
		}
	}
}

// TestDrainRefusesNewQueries: draining flips /query and /healthz to 503
// while in-flight queries run to completion.
func TestDrainRefusesNewQueries(t *testing.T) {
	defer leakCheck(t)()
	var gs *gateServer
	srv := newTestServer(t, 4, 0, func(ms *site.MemSite) site.Server {
		gs = &gateServer{MemSite: ms}
		return gs
	})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	gs.arm()
	done := make(chan int, 1)
	go func() {
		resp, _ := doQuery(t, ts, "SELECT d.DName FROM Dept d")
		done <- resp.StatusCode
	}()
	select {
	case <-gs.blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("query never reached the site")
	}

	srv.drain()
	resp, _ := doQuery(t, ts, "SELECT d.DName FROM Dept d")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query while draining: status %d, want 503", resp.StatusCode)
	}
	hresp, err := ts.Client().Get(ts.URL + "/healthz") //lint:allow fetchgate client of our own query API, not a page fetch
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", hresp.StatusCode)
	}

	// The in-flight query still completes.
	gs.release()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight query finished with %d during drain, want 200", code)
	}
}

// TestSmokeWorkload runs the self-test end to end (ephemeral port). The
// smoke asserts plan-cache behavior, so the test mirrors the binary's
// default configuration and enables the cache.
func TestSmokeWorkload(t *testing.T) {
	srv := newTestServer(t, 8, 0, nil)
	srv.sys.EnablePlanCache(ulixes.PlanCacheConfig{})
	if err := runSmoke(srv); err != nil {
		t.Fatal(err)
	}
}

// headGate blocks every HEAD while armed — it holds a revalidating query in
// flight deterministically. It deliberately implements only the plain
// site.Server surface.
type headGate struct {
	inner   site.Server
	mu      sync.Mutex
	gate    chan struct{}
	blocked chan struct{}
}

func (h *headGate) arm() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.gate = make(chan struct{})
	h.blocked = make(chan struct{}, 64)
}

func (h *headGate) release() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.gate != nil {
		close(h.gate)
		h.gate = nil
	}
}

func (h *headGate) Get(url string) (site.Page, error) {
	return h.inner.Get(url) //lint:allow fetchgate test double forwarding to the wrapped site
}

func (h *headGate) Head(url string) (site.Meta, error) {
	h.mu.Lock()
	gate, blocked := h.gate, h.blocked
	h.mu.Unlock()
	if gate != nil {
		blocked <- struct{}{}
		<-gate
	}
	return h.inner.Head(url) //lint:allow fetchgate test double forwarding to the wrapped site
}

// guardedFixture builds a university server whose fetches run through
// chaos → headGate → guard, on a shared manual clock, exactly as ulixesd
// wires the guard in front of the store and the engine.
func guardedFixture(t *testing.T) (*server, *faults.Server, *headGate, func(time.Duration)) {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.UniversityParams{Courses: 12, Profs: 6, Depts: 2})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	now := time.Date(1998, time.March, 23, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	chaos := faults.New(ms, 7)
	hg := &headGate{inner: chaos}
	g := guard.New(hg, guard.Config{
		Clock: clock,
		// The statistics crawl and the warm query leave the EWMA near
		// zero, so exactly two failures (0.5, then 0.75) cross 0.6.
		ErrorThreshold: 0.6,
		OpenFor:        30 * time.Second,
	})
	cache := pagecache.New(g, u.Scheme, pagecache.Config{
		DefaultTTL: 10 * time.Second,
		Clock:      clock,
		Retry:      site.RetryPolicy{MaxRetries: 3, Seed: 7},
		Sleeper:    &site.InstantSleeper{},
	})
	sys, err := ulixes.Open(g, u.Scheme, view.UniversityView(u.Scheme))
	if err != nil {
		t.Fatal(err)
	}
	sys.SetExec(ulixes.ExecOptions{Cache: cache})
	srv := newServer(sys, cache, 4)
	srv.guard = g
	return srv, chaos, hg, advance
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
	resp, warm := doQuery(t, ts, q)
	if resp.StatusCode != http.StatusOK || warm.Degraded {
		t.Fatalf("warm query: status %d degraded %v", resp.StatusCode, warm.Degraded)
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
		resp, body := doQuery(t, ts, q)
		done <- result{resp.StatusCode, body}
	}()
	select {
	case <-hg.blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("query never reached the site")
	}

	srv.drain()
	if resp, _ := doQuery(t, ts, q); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query while draining: status %d, want 503", resp.StatusCode)
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
	if resp, _ := doQuery(t, ts, q); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm query status %d", resp.StatusCode)
	}

	// Low priority is admitted while healthy.
	resp, err := ts.Client().Get(ts.URL + "/query?priority=low&q=" + url.QueryEscape(q)) //lint:allow fetchgate client of our own query API, not a page fetch
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy low-priority query status %d, want 200", resp.StatusCode)
	}

	// The origin goes down; the next query trips the breaker and degrades.
	advance(11 * time.Second)
	chaos.SetRules(faults.Rule{Kind: faults.Transient, Rate: 1})
	resp2, body := doQuery(t, ts, q)
	if resp2.StatusCode != http.StatusOK || !body.Degraded {
		t.Fatalf("sick-host query: status %d degraded %v, want degraded 200", resp2.StatusCode, body.Degraded)
	}

	// Low priority is now shed at admission; normal priority still served.
	req, err := http.NewRequest("GET", ts.URL+"/query?q="+url.QueryEscape(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Ulixes-Priority", "low")
	resp3, err := ts.Client().Do(req) //lint:allow fetchgate client of our own query API, not a page fetch
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("low-priority query with open breaker: status %d, want 503", resp3.StatusCode)
	}
	if resp4, _ := doQuery(t, ts, q); resp4.StatusCode != http.StatusOK {
		t.Fatalf("normal-priority query with open breaker: status %d, want 200", resp4.StatusCode)
	}
	if got := srv.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	// The open breaker is visible on /healthz and /stats.
	var health healthResponse
	if err := getTestJSON(t, ts, "/healthz", &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.BreakersOpen != 1 {
		t.Fatalf("healthz %+v, want degraded with one open breaker", health)
	}
	var st storeStats
	if err := getTestJSON(t, ts, "/stats", &st); err != nil {
		t.Fatal(err)
	}
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
	resp, warm := doQuery(t, ts, q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm query status %d", resp.StatusCode)
	}
	advance(11 * time.Second)
	chaos.SetRules(faults.Rule{Kind: faults.Transient, Rate: 1})
	const n = 20
	for i := 0; i < n; i++ {
		resp, body := doQuery(t, ts, q)
		if resp.StatusCode != http.StatusOK || !body.Degraded || len(body.StalePages) == 0 {
			t.Fatalf("query %d: status %d degraded %v, %d stale pages; want a stale answer",
				i, resp.StatusCode, body.Degraded, len(body.StalePages))
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

// getTestJSON fetches one of the server's own JSON endpoints.
func getTestJSON(t *testing.T, ts *httptest.Server, path string, v any) error {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path) //lint:allow fetchgate client of our own query API, not a page fetch
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestQueueAdmissionQueuesThenServes: with a bounded queue configured, a
// request beyond the slot count waits its turn and is served — not 429'd —
// while a request beyond the queue bound is still rejected immediately.
func TestQueueAdmissionQueuesThenServes(t *testing.T) {
	defer leakCheck(t)()
	var gs *gateServer
	srv := newTestServer(t, 1, 0, func(ms *site.MemSite) site.Server {
		gs = &gateServer{MemSite: ms}
		return gs
	})
	srv.queue = overload.NewQueue(overload.QueueConfig{
		Slots: 1, MaxQueue: 1, MaxWait: 30 * time.Second,
	})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	gs.arm()
	first := make(chan int, 1)
	go func() {
		resp, _ := doQuery(t, ts, "SELECT d.DName FROM Dept d")
		first <- resp.StatusCode
	}()
	select {
	case <-gs.blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("first query never reached the site")
	}

	// The second query queues instead of failing.
	second := make(chan int, 1)
	go func() {
		resp, _ := doQuery(t, ts, "SELECT d.DName FROM Dept d")
		second <- resp.StatusCode
	}()
	waitQueued := time.Now().Add(10 * time.Second)
	for srv.queue.Depth() != 1 {
		if time.Now().After(waitQueued) {
			t.Fatal("second query never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// The third finds slot and queue full: immediate 429.
	resp, _ := doQuery(t, ts, "SELECT d.DName FROM Dept d")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third query status %d, want 429", resp.StatusCode)
	}

	gs.release()
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first query status %d, want 200", code)
	}
	if code := <-second; code != http.StatusOK {
		t.Fatalf("queued query status %d, want 200", code)
	}

	var st storeStats
	if err := getTestJSON(t, ts, "/stats", &st); err != nil {
		t.Fatal(err)
	}
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
	srv := newTestServer(t, 4, 0, nil)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	const q = "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"
	// A negative duration parses, but the budget would read it as "no
	// deadline asked" and run the query unbounded; it is rejected instead.
	for _, bad := range []string{"banana", "-1s"} {
		resp, err := ts.Client().Get(ts.URL + "/query?deadline=" + bad + "&q=" + url.QueryEscape(q)) //lint:allow fetchgate client of our own query API, not a page fetch
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("deadline=%s status %d, want 400", bad, resp.StatusCode)
		}
	}

	// A deadline that has effectively already passed: the query still
	// answers (degraded execution tolerates the expired context) and the
	// response says the budget ran out.
	resp2, err := ts.Client().Get(ts.URL + "/query?deadline=1ns&q=" + url.QueryEscape(q)) //lint:allow fetchgate client of our own query API, not a page fetch
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("expired-deadline query status %d, want 200", resp2.StatusCode)
	}
	var out queryResponse
	if err := json.NewDecoder(resp2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.DeadlineExpired {
		t.Fatal("response should be marked deadlineExpired")
	}
	if got := srv.deadlineExpired.Load(); got != 1 {
		t.Fatalf("deadlineExpired counter = %d, want 1", got)
	}

	// A generous deadline leaves the answer untouched.
	resp3, body := doQuery(t, ts, q)
	if resp3.StatusCode != http.StatusOK || body.DeadlineExpired {
		t.Fatalf("generous deadline: status %d expired %v", resp3.StatusCode, body.DeadlineExpired)
	}
}

// TestPanicMiddlewareRecovers: a panicking handler becomes one 500 and a
// counter; a panic after the response was committed is swallowed without a
// second write. The server keeps serving either way.
func TestPanicMiddlewareRecovers(t *testing.T) {
	srv := newTestServer(t, 4, 0, nil)

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
	if resp, _ := doQuery(t, ts, "SELECT d.DName FROM Dept d"); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic query status %d, want 200", resp.StatusCode)
	}
}

// standingFixture wires a standing-query registry into a test server the
// way main does with -feed, answering through the shared system.
func standingFixture(t *testing.T) (*server, *standing.Registry) {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.UniversityParams{Courses: 12, Profs: 6, Depts: 2})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	views := view.UniversityView(u.Scheme)
	cache := pagecache.New(ms, u.Scheme, pagecache.Config{
		DefaultTTL: pagecache.Forever,
		Clock:      site.LogicalClock(),
	})
	sys, err := ulixes.Open(ms, u.Scheme, views)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetExec(ulixes.ExecOptions{Cache: cache})
	srv := newServer(sys, cache, 4)
	reg := standing.New(standing.Config{
		Views: views,
		Answer: func(q *ulixes.Query) (*ulixes.Relation, error) {
			ans, err := sys.QueryCQ(q)
			if err != nil {
				return nil, err
			}
			return ans.Result, nil
		},
	})
	srv.standing = reg
	return srv, reg
}

// TestWatchSlowClientDisconnected: a /watch SSE write that cannot complete
// within the per-write deadline disconnects the stream and is counted, so a
// stalled subscriber cannot pin its goroutine and buffers forever.
func TestWatchSlowClientDisconnected(t *testing.T) {
	defer leakCheck(t)()
	srv, reg := standingFixture(t)
	// A deadline that is already past when armed: every write fails the
	// way a stalled client's writes do, without needing to fill socket
	// buffers in a test.
	srv.watchWrite = time.Nanosecond
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	id, err := reg.Subscribe("SELECT d.DName FROM Dept d")
	if err != nil {
		t.Fatal(err)
	}
	// The initial snapshot delta is waiting, so the stream tries to write
	// immediately and hits the expired deadline.
	resp, err := ts.Client().Get(ts.URL + "/watch?sse=1&after=0&id=" + strconv.Itoa(id)) //lint:allow fetchgate client of our own query API, not a page fetch
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
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
	srv := newTestServer(t, 4, 0, nil)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	if resp, _ := doQuery(t, ts, "SELECT p.PName FROM Professor p"); resp.StatusCode != http.StatusOK {
		t.Fatal("query failed")
	}
	var st storeStats
	if err := getTestJSON(t, ts, "/stats", &st); err != nil {
		t.Fatal(err)
	}
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
