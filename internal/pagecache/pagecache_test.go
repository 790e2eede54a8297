package pagecache

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ulixes/internal/faults"
	"ulixes/internal/guard"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
)

// testSite builds the paper's university site with its access counters.
func testSite(t *testing.T) (*site.MemSite, *sitegen.University) {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ms, u
}

// manualClock is a hand-advanced clock for deterministic TTL tests.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func newManualClock() *manualClock {
	return &manualClock{t: time.Date(2000, time.January, 1, 0, 0, 0, 0, time.UTC)}
}

func (m *manualClock) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.t
}

func (m *manualClock) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.t = m.t.Add(d)
}

// pageOf picks a served URL and its page-scheme.
func pageOf(t *testing.T, ms *site.MemSite, i int) (scheme, url string) {
	t.Helper()
	urls := ms.URLs()
	if i >= len(urls) {
		t.Fatalf("site has only %d pages", len(urls))
	}
	url = urls[i]
	scheme, ok := ms.SchemeOf(url)
	if !ok {
		t.Fatalf("no scheme for %s", url)
	}
	return scheme, url
}

// fetchOne runs one fresh session's access and returns its stats.
func fetchOne(t *testing.T, c *Cache, scheme, url string) SessionStats {
	t.Helper()
	s := c.NewSession(SessionOptions{})
	if _, err := s.FetchCtx(context.Background(), scheme, url); err != nil {
		t.Fatalf("FetchCtx(%s): %v", url, err)
	}
	return s.Stats()
}

func TestAccessOutcomes(t *testing.T) {
	ms, u := testSite(t)
	clk := newManualClock()
	c := New(ms, u.Scheme, Config{DefaultTTL: 10 * time.Second, Clock: clk.Now})
	scheme, url := pageOf(t, ms, 0)

	// Cold: a physical GET.
	st := fetchOne(t, c, scheme, url)
	if st.Fetches != 1 || st.CacheHits != 0 || st.LightConnections != 0 {
		t.Fatalf("cold access: %+v, want 1 fetch", st)
	}
	// Warm within the lease: a free hit for a different query.
	st = fetchOne(t, c, scheme, url)
	if st.CacheHits != 1 || st.Fetches != 0 || st.LightConnections != 0 {
		t.Fatalf("warm access: %+v, want 1 hit", st)
	}
	if got := ms.Counters().Gets(); got != 1 {
		t.Fatalf("site saw %d GETs, want 1", got)
	}

	// Expired, page unchanged: exactly one HEAD, no GET.
	clk.Advance(11 * time.Second)
	st = fetchOne(t, c, scheme, url)
	if st.Revalidations != 1 || st.LightConnections != 1 || st.Fetches != 0 {
		t.Fatalf("revalidation: %+v, want 1 HEAD and no GET", st)
	}
	if gets, heads := ms.Counters().Gets(), ms.Counters().Heads(); gets != 1 || heads != 1 {
		t.Fatalf("site saw %d GETs / %d HEADs, want 1 / 1", gets, heads)
	}

	// The revalidation renewed the lease: fresh again.
	st = fetchOne(t, c, scheme, url)
	if st.CacheHits != 1 {
		t.Fatalf("after revalidation: %+v, want a hit", st)
	}

	// Expired and changed on the site: one HEAD plus one GET.
	if !ms.Touch(url) {
		t.Fatal("Touch failed")
	}
	clk.Advance(11 * time.Second)
	st = fetchOne(t, c, scheme, url)
	if st.Fetches != 1 || st.LightConnections != 1 || st.Revalidations != 0 {
		t.Fatalf("changed page: %+v, want 1 HEAD + 1 GET", st)
	}
	if gets, heads := ms.Counters().Gets(), ms.Counters().Heads(); gets != 2 || heads != 2 {
		t.Fatalf("site saw %d GETs / %d HEADs, want 2 / 2", gets, heads)
	}

	cs := c.Stats()
	if cs.Fetches != 2 || cs.Hits != 2 || cs.Revalidations != 1 || cs.LightConnections != 2 {
		t.Fatalf("cache stats %+v, want fetches 2, hits 2, revalidations 1, lights 2", cs)
	}
}

// TestTTLRevalidationProperty drives a random (seeded) schedule of clock
// advances, site edits and accesses against a model of §8: inside the lease
// an access is free; after expiry it costs exactly one light connection,
// plus one download iff the page actually changed.
func TestTTLRevalidationProperty(t *testing.T) {
	ms, u := testSite(t)
	clk := newManualClock()
	const ttl = 10 * time.Second
	c := New(ms, u.Scheme, Config{DefaultTTL: ttl, Clock: clk.Now})
	scheme, url := pageOf(t, ms, 3)

	// Prime the store.
	fetchOne(t, c, scheme, url)
	wantGets, wantHeads := 1, 0
	leaseEnd := clk.Now().Add(ttl)
	changed := false

	rng := rand.New(rand.NewSource(1998))
	for step := 0; step < 200; step++ {
		// Advance 0–14s: some accesses land inside the lease, some after.
		clk.Advance(time.Duration(rng.Intn(15)) * time.Second)
		if rng.Intn(4) == 0 {
			if !ms.Touch(url) {
				t.Fatal("Touch failed")
			}
			changed = true
		}
		st := fetchOne(t, c, scheme, url)
		if clk.Now().Before(leaseEnd) {
			if st.CacheHits != 1 || st.LightConnections != 0 || st.Fetches != 0 {
				t.Fatalf("step %d: in-lease access %+v, want a free hit", step, st)
			}
		} else {
			wantHeads++
			if changed {
				wantGets++
				if st.Fetches != 1 || st.LightConnections != 1 {
					t.Fatalf("step %d: changed page %+v, want HEAD+GET", step, st)
				}
			} else if st.Revalidations != 1 || st.LightConnections != 1 || st.Fetches != 0 {
				t.Fatalf("step %d: unchanged page %+v, want exactly one HEAD", step, st)
			}
			changed = false
			leaseEnd = clk.Now().Add(ttl)
		}
		if gets, heads := ms.Counters().Gets(), ms.Counters().Heads(); gets != wantGets || heads != wantHeads {
			t.Fatalf("step %d: site saw %d GETs / %d HEADs, want %d / %d", step, gets, heads, wantGets, wantHeads)
		}
	}
	if wantHeads == 0 {
		t.Fatal("schedule never expired the lease; property untested")
	}
}

func TestEvictionByteBound(t *testing.T) {
	ms, u := testSite(t)
	clk := newManualClock()
	var urls []string
	var schemes []string
	var sizes []int
	for i := 0; i < 3; i++ {
		s, uu := pageOf(t, ms, i)
		p, err := ms.Get(uu) //lint:allow fetchgate test measures page sizes out of band
		if err != nil {
			t.Fatal(err)
		}
		urls = append(urls, uu)
		schemes = append(schemes, s)
		sizes = append(sizes, len(p.HTML))
	}
	ms.Counters().Reset()

	// Room for the two most recent pages only.
	c := New(ms, u.Scheme, Config{
		MaxBytes:   int64(sizes[1] + sizes[2]),
		DefaultTTL: Forever,
		Clock:      clk.Now,
	})
	for i := range urls {
		fetchOne(t, c, schemes[i], urls[i])
	}
	if c.Stats().Evictions == 0 {
		t.Fatalf("no evictions with bound %d and %d bytes fetched", sizes[1]+sizes[2], sizes[0]+sizes[1]+sizes[2])
	}
	if c.Bytes() > int64(sizes[1]+sizes[2]) {
		t.Fatalf("cache holds %d bytes, bound %d", c.Bytes(), sizes[1]+sizes[2])
	}
	// The evicted (least-recently-used) page costs a fresh GET; the
	// retained most-recent page stays a hit.
	gets := ms.Counters().Gets()
	st := fetchOne(t, c, schemes[0], urls[0])
	if st.Fetches != 1 {
		t.Fatalf("evicted page access %+v, want a re-fetch", st)
	}
	if got := ms.Counters().Gets(); got != gets+1 {
		t.Fatalf("site saw %d GETs, want %d", got, gets+1)
	}
	st = fetchOne(t, c, schemes[2], urls[2])
	if st.Fetches != 0 && st.CacheHits != 1 {
		t.Fatalf("recent page access %+v, want a hit", st)
	}
}

func TestOversizedPageNotRetained(t *testing.T) {
	ms, u := testSite(t)
	c := New(ms, u.Scheme, Config{MaxBytes: 1, DefaultTTL: Forever, Clock: newManualClock().Now})
	scheme, url := pageOf(t, ms, 0)
	if _, err := c.NewSession(SessionOptions{}).FetchCtx(context.Background(), scheme, url); err != nil {
		t.Fatalf("oversized page must still be served: %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("cache retained %d oversized entries, want 0", c.Len())
	}
}

// TestDegradedFetchNeverPoisons composes the chaos server underneath the
// cache: a malformed (truncated) download is an error for the asking query
// and must never become a cache entry served to later queries.
func TestDegradedFetchNeverPoisons(t *testing.T) {
	ms, u := testSite(t)
	scheme, url := pageOf(t, ms, 0)
	chaos := faults.New(ms, 1998, faults.Rule{Pattern: url, Kind: faults.Malform, First: 1})
	clk := newManualClock()
	c := New(chaos, u.Scheme, Config{DefaultTTL: Forever, Clock: clk.Now})

	s := c.NewSession(SessionOptions{})
	if _, err := s.FetchCtx(context.Background(), scheme, url); err == nil {
		t.Fatal("malformed page should fail to wrap")
	}
	if c.Len() != 0 {
		t.Fatalf("malformed page poisoned the cache: %d entries", c.Len())
	}
	// The fault schedule is exhausted: a later query succeeds and caches.
	st := fetchOne(t, c, scheme, url)
	if st.Fetches != 1 {
		t.Fatalf("recovered access %+v, want a fetch", st)
	}
	if c.Len() != 1 {
		t.Fatalf("recovered page not cached: %d entries", c.Len())
	}
}

// TestRetryUnderChaos gives the cache a retry budget: a page failing its
// first attempts is still fetched exactly once as far as the cache and
// every query are concerned.
func TestRetryUnderChaos(t *testing.T) {
	ms, u := testSite(t)
	scheme, url := pageOf(t, ms, 0)
	chaos := faults.New(ms, 7, faults.Rule{Pattern: url, Kind: faults.Transient, First: 2})
	c := New(chaos, u.Scheme, Config{
		DefaultTTL: Forever,
		Clock:      newManualClock().Now,
		Retry:      site.RetryPolicy{MaxRetries: 3, Seed: 7},
		Sleeper:    &site.InstantSleeper{},
	})
	st := fetchOne(t, c, scheme, url)
	if st.Fetches != 1 {
		t.Fatalf("retried access %+v, want one logical fetch", st)
	}
	if got := c.Stats().Retries; got != 2 {
		t.Fatalf("cache spent %d retries, want 2", got)
	}
	if got := c.RetriesFor(url); got != 2 {
		t.Fatalf("RetriesFor = %d, want 2", got)
	}
}

func TestSessionBudget(t *testing.T) {
	ms, u := testSite(t)
	c := New(ms, u.Scheme, Config{DefaultTTL: Forever, Clock: newManualClock().Now})
	urls := ms.URLs()[:5]
	scheme, _ := pageOf(t, ms, 0)
	schemes := make([]string, len(urls))
	for i, uu := range urls {
		schemes[i], _ = ms.SchemeOf(uu)
	}
	_ = scheme

	s := c.NewSession(SessionOptions{PageBudget: 3})
	for i := 0; i < 3; i++ {
		if _, err := s.FetchCtx(context.Background(), schemes[i], urls[i]); err != nil {
			t.Fatalf("within budget: %v", err)
		}
	}
	// A re-access of a seen URL is free under the budget.
	if _, err := s.FetchCtx(context.Background(), schemes[0], urls[0]); err != nil {
		t.Fatalf("re-access: %v", err)
	}
	if _, err := s.FetchCtx(context.Background(), schemes[3], urls[3]); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("4th distinct page: err = %v, want ErrBudgetExceeded", err)
	}

	// Budget overruns abort batches even in degraded mode.
	sd := c.NewSession(SessionOptions{PageBudget: 2, Degraded: true})
	if _, err := sd.FetchAllCtx(context.Background(), schemes[0], urls[:1]); err != nil {
		t.Fatalf("degraded batch within budget: %v", err)
	}
	_, err := sd.FetchAllCtx(context.Background(), schemes[1], urls[1:4])
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("degraded over-budget batch: err = %v, want ErrBudgetExceeded", err)
	}
}

func TestSessionSnapshotPinsTuples(t *testing.T) {
	ms, u := testSite(t)
	clk := newManualClock()
	c := New(ms, u.Scheme, Config{MaxBytes: 1, DefaultTTL: Forever, Clock: clk.Now})
	scheme, url := pageOf(t, ms, 0)
	s := c.NewSession(SessionOptions{})
	t1, err := s.FetchCtx(context.Background(), scheme, url)
	if err != nil {
		t.Fatal(err)
	}
	gets := ms.Counters().Gets()
	// The byte bound evicted the entry immediately, but the session's
	// snapshot serves the re-access without another GET.
	t2, err := s.FetchCtx(context.Background(), scheme, url)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Counters().Gets() != gets {
		t.Fatal("session re-access hit the network")
	}
	if t1.String() != t2.String() {
		t.Fatal("session snapshot changed between accesses")
	}
}

func TestInvalidate(t *testing.T) {
	ms, u := testSite(t)
	c := New(ms, u.Scheme, Config{DefaultTTL: Forever, Clock: newManualClock().Now})
	scheme, url := pageOf(t, ms, 0)
	fetchOne(t, c, scheme, url)
	if !c.Invalidate(url) {
		t.Fatal("Invalidate found nothing")
	}
	st := fetchOne(t, c, scheme, url)
	if st.Fetches != 1 {
		t.Fatalf("post-invalidate access %+v, want a fetch", st)
	}
}

func TestNotFoundAfterExpiryDropsEntry(t *testing.T) {
	ms, u := testSite(t)
	clk := newManualClock()
	c := New(ms, u.Scheme, Config{DefaultTTL: time.Second, Clock: clk.Now})
	scheme, url := pageOf(t, ms, 0)
	fetchOne(t, c, scheme, url)
	if !ms.RemovePage(url) {
		t.Fatal("RemovePage failed")
	}
	clk.Advance(2 * time.Second)
	s := c.NewSession(SessionOptions{})
	if _, err := s.FetchCtx(context.Background(), scheme, url); !errors.Is(err, site.ErrNotFound) {
		t.Fatalf("vanished page: err = %v, want ErrNotFound", err)
	}
	if c.Len() != 0 {
		t.Fatalf("vanished page still cached: %d entries", c.Len())
	}
}

// TestStaleServeWhenBreakerOpen drives the full degradation path: a warmed
// entry expires, the origin goes down, the guard's breaker opens after
// MinSamples failures, and the store answers from the expired copy with
// exact deterministic counters — then recovers with a single revalidation
// once the breaker's window lapses and the origin heals.
func TestStaleServeWhenBreakerOpen(t *testing.T) {
	ms, u := testSite(t)
	clk := newManualClock()
	chaos := faults.New(ms, 7)
	g := guard.New(chaos, guard.Config{
		Clock:          clk.Now,
		ErrorThreshold: 0.5,
		OpenFor:        30 * time.Second,
	})
	c := New(g, u.Scheme, Config{
		DefaultTTL: 10 * time.Second,
		Clock:      clk.Now,
		Retry:      site.RetryPolicy{MaxRetries: 5, Seed: 7},
		Sleeper:    &site.InstantSleeper{},
	})
	scheme, url := pageOf(t, ms, 0)

	// Warm the cache, pin the answer, and let the lease expire.
	warm := c.NewSession(SessionOptions{})
	warmTuple, err := warm.FetchCtx(context.Background(), scheme, url)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(11 * time.Second)

	// The origin goes down hard: every attempt fails.
	chaos.SetRules(faults.Rule{Kind: faults.Transient, Rate: 1})

	// First expired access: three physical HEAD failures trip the breaker,
	// the fourth attempt fast-fails, and the store serves the expired copy.
	sess := c.NewSession(SessionOptions{Degraded: true})
	got, err := sess.FetchAllCtx(context.Background(), scheme, []string{url})
	var pe *site.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("stale batch err = %v, want *site.PartialError", err)
	}
	if len(pe.Failures) != 0 || len(pe.Stale) != 1 || pe.Stale[0] != url {
		t.Fatalf("partial error %+v, want no failures and %s stale", pe, url)
	}
	if len(got) != 1 || !got[0].Equal(warmTuple) {
		t.Fatalf("stale batch returned %d tuples, want the warmed copy", len(got))
	}
	st := sess.Stats()
	if st.Accesses != 1 || st.Stale != 1 || st.Fetches != 0 || st.Revalidations != 0 || st.CacheHits != 0 {
		t.Fatalf("stale access stats %+v, want exactly one stale serve", st)
	}
	if st.BreakerFastFails != 1 || st.LightConnections != 1 {
		t.Fatalf("stale access stats %+v, want 1 fast-fail and 1 light connection", st)
	}
	if got := g.StateOf(guard.HostOf(url)); got != guard.Open {
		t.Fatalf("breaker state %v, want Open", got)
	}

	// While the breaker stays open: no network at all, immediate stale serve.
	st = fetchOne(t, c, scheme, url)
	if st.Stale != 1 || st.BreakerFastFails != 1 || st.LightConnections != 0 {
		t.Fatalf("open-breaker access stats %+v, want fast-failed stale serve with no HEAD", st)
	}

	// The origin heals and the open window lapses: the half-open probe
	// revalidates the entry with a single light connection.
	chaos.SetRules()
	clk.Advance(31 * time.Second)
	st = fetchOne(t, c, scheme, url)
	if st.Revalidations != 1 || st.LightConnections != 1 || st.Stale != 0 || st.Fetches != 0 {
		t.Fatalf("recovery access stats %+v, want one revalidation", st)
	}
	if gets := ms.Counters().Gets(); gets != 1 {
		t.Fatalf("site saw %d GETs, want only the warmup fetch", gets)
	}
}

// testMeter accumulates ByteMeter charges.
type testMeter struct{ n atomic.Int64 }

func (m *testMeter) Add(d int64) { m.n.Add(d) }

// TestMeterTracksRetainedBytes: the injected meter's balance follows the
// store's retained bytes through inserts, replacement and eviction.
func TestMeterTracksRetainedBytes(t *testing.T) {
	ms, u := testSite(t)
	var m testMeter
	c := New(ms, u.Scheme, Config{
		DefaultTTL: Forever,
		Clock:      newManualClock().Now,
		MaxBytes:   4096,
		Meter:      &m,
	})
	for i := 0; i < 8; i++ {
		scheme, url := pageOf(t, ms, i)
		fetchOne(t, c, scheme, url)
		if got := m.n.Load(); got != c.Bytes() {
			t.Fatalf("after fetch %d: meter %d != store bytes %d", i, got, c.Bytes())
		}
	}
	scheme, url := pageOf(t, ms, 0)
	if !c.Invalidate(url) {
		t.Fatal("Invalidate found nothing")
	}
	if got := m.n.Load(); got != c.Bytes() {
		t.Fatalf("after invalidate: meter %d != store bytes %d", got, c.Bytes())
	}
	fetchOne(t, c, scheme, url)
	if got := m.n.Load(); got != c.Bytes() {
		t.Fatalf("after refill: meter %d != store bytes %d", got, c.Bytes())
	}
}
