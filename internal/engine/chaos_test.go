package engine

import (
	"strings"
	"sync"
	"testing"
	"time"

	"ulixes/internal/faults"
	"ulixes/internal/guard"
	"ulixes/internal/pagecache"
	"ulixes/internal/site"
)

// TestChaosRetriesRecoverQuery is the first acceptance scenario from the
// fault-injection issue: a query that fails outright with no retries
// succeeds once retries are enabled, producing exactly the tuples of the
// fault-free run, with ExecStats.Retries > 0 and the distinct-page cost
// unchanged. Every wait goes through InstantSleeper, so no wall clock.
func TestChaosRetriesRecoverQuery(t *testing.T) {
	_, ms, base := univEngine(t)
	const query = "SELECT p.PName, p.Rank FROM Professor p WHERE p.Rank = 'Full'"
	want, err := base.Query(query)
	if err != nil {
		t.Fatal(err)
	}

	// Every page fails its first two GET attempts, deterministically.
	chaos := faults.New(ms, 42, faults.Rule{Kind: faults.Transient, First: 2})
	e := New(base.Views, chaos, base.Opt.Stats)

	e.Exec = ExecOptions{Sleeper: &site.InstantSleeper{}}
	if _, err := e.Query(query); err == nil {
		t.Fatal("query with no retries should fail under First=2 transient faults")
	}

	chaos.Reset()
	e.Exec = ExecOptions{
		Retry:   site.RetryPolicy{MaxRetries: 3},
		Sleeper: &site.InstantSleeper{},
	}
	ans, err := e.Query(query)
	if err != nil {
		t.Fatalf("query with 3 retries should recover: %v", err)
	}
	if !ans.Result.Equal(want.Result) {
		t.Errorf("recovered answer differs from fault-free run:\ngot  %v\nwant %v",
			ans.Result.Sorted(), want.Result.Sorted())
	}
	if ans.Exec.Retries == 0 {
		t.Error("ExecStats.Retries = 0, want > 0 after recovering from faults")
	}
	if ans.Exec.Pages != want.Exec.Pages {
		t.Errorf("distinct pages = %d, want %d (retries must not change the paper's cost)",
			ans.Exec.Pages, want.Exec.Pages)
	}
	if ans.Exec.Degraded {
		t.Error("Degraded = true on a fully recovered run")
	}
	if chaos.Injected(faults.Transient) == 0 {
		t.Error("chaos server reports no injected transients")
	}
}

// TestChaosDegradedPartialAnswer is the second acceptance scenario: with a
// permanently vanished page and degraded mode on, the query returns a
// partial answer — the reachable tuples — with Degraded=true and the
// missing URL listed in FailedPages. Strict mode still fails.
func TestChaosDegradedPartialAnswer(t *testing.T) {
	_, ms, base := univEngine(t)
	// Rank lives on the professor's own page, so the plan must follow every
	// ToProf link — including the vanished one.
	const query = "SELECT p.PName, p.Rank FROM Professor p"
	const gone = "http://univ.example.edu/prof/3.html"
	want, err := base.Query(query)
	if err != nil {
		t.Fatal(err)
	}

	chaos := faults.New(ms, 7, faults.Rule{Pattern: "prof/3.html", Kind: faults.NotFound, Rate: 1})
	e := New(base.Views, chaos, base.Opt.Stats)

	// Strict mode: the vanished page aborts the query.
	e.Exec = ExecOptions{Sleeper: &site.InstantSleeper{}}
	if _, err := e.Query(query); err == nil {
		t.Fatal("strict query over a vanished page should fail")
	}

	chaos.Reset()
	e.Exec = ExecOptions{Degraded: true, Sleeper: &site.InstantSleeper{}}
	ans, err := e.Query(query)
	if err != nil {
		t.Fatalf("degraded query should return a partial answer: %v", err)
	}
	if !ans.Exec.Degraded {
		t.Error("ExecStats.Degraded = false, want true")
	}
	if len(ans.Exec.FailedPages) != 1 || ans.Exec.FailedPages[0] != gone {
		t.Errorf("FailedPages = %v, want [%s]", ans.Exec.FailedPages, gone)
	}
	if got := ans.Result.Len(); got != want.Result.Len()-1 {
		t.Errorf("partial answer has %d tuples, want %d (full minus the vanished professor)",
			got, want.Result.Len()-1)
	}
	for _, tup := range ans.Result.Tuples() {
		if strings.Contains(tup.String(), "prof/3.html") {
			t.Errorf("partial answer contains a tuple from the vanished page: %v", tup)
		}
	}
}

// TestChaosBreakerStaleDegradedQuery is the site-health-guard acceptance
// scenario end to end: a query warmed through the shared store keeps
// answering — identically, marked Degraded with exact stale counters —
// after its origin goes down and the guard's breaker opens, without
// touching the network beyond the two failures that tripped it.
func TestChaosBreakerStaleDegradedQuery(t *testing.T) {
	_, ms, base := univEngine(t)
	const query = "SELECT p.PName, p.Rank FROM Professor p"

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
	g := guard.New(chaos, guard.Config{
		Clock: clock,
		// The warm query leaves the EWMA near zero, so with Alpha = 0.5
		// exactly two failures (0.5, then 0.75) cross a 0.6 threshold.
		ErrorThreshold: 0.6,
		OpenFor:        30 * time.Second,
	})
	cache := pagecache.New(g, base.Views.Scheme, pagecache.Config{
		DefaultTTL: 60 * time.Second,
		Clock:      clock,
		Retry:      site.RetryPolicy{MaxRetries: 5, Seed: 7},
		Sleeper:    &site.InstantSleeper{},
	})
	e := New(base.Views, g, base.Opt.Stats)
	e.Exec = ExecOptions{Cache: cache, Workers: 1}

	warm, err := e.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Exec.Degraded || warm.Exec.Stale != 0 {
		t.Fatalf("warm run unexpectedly degraded: %+v", warm.Exec)
	}
	accesses := warm.Exec.Pages // cold store: every access was a fetch

	// Every lease expires, then the origin goes down hard.
	advance(61 * time.Second)
	chaos.SetRules(faults.Rule{Kind: faults.Transient, Rate: 1})

	ans, err := e.Query(query)
	if err != nil {
		t.Fatalf("query over the open breaker should degrade, not fail: %v", err)
	}
	if !ans.Result.Equal(warm.Result) {
		t.Errorf("stale answer differs from the warm answer:\ngot  %v\nwant %v",
			ans.Result.Sorted(), warm.Result.Sorted())
	}
	st := ans.Exec
	if !st.Degraded {
		t.Error("ExecStats.Degraded = false, want true for a stale answer")
	}
	if st.Stale != accesses || len(st.StalePages) != accesses {
		t.Errorf("Stale = %d, StalePages = %d, want %d", st.Stale, len(st.StalePages), accesses)
	}
	if st.Pages != 0 || st.CacheHits != 0 || st.Revalidations != 0 {
		t.Errorf("stale run did network or cache work: %+v", st)
	}
	if st.BreakerFastFails != accesses {
		t.Errorf("BreakerFastFails = %d, want %d (one fast-fail terminates each access)",
			st.BreakerFastFails, accesses)
	}
	// Only the first access touched the network: one logical light
	// connection whose retry (the second failure) tripped the breaker.
	if st.LightConnections != 1 {
		t.Errorf("LightConnections = %d, want 1 (only the access that tripped the breaker)",
			st.LightConnections)
	}
	if got := cache.Stats().Retries; got != 2 {
		t.Errorf("cache retries = %d, want the 2 real HEAD failures", got)
	}
	if len(st.FailedPages) != 0 {
		t.Errorf("FailedPages = %v, want none (stale pages are served, not lost)", st.FailedPages)
	}

	// The origin heals and the window lapses: the store revalidates and the
	// answer is fresh again.
	chaos.SetRules()
	advance(31 * time.Second)
	fresh, err := e.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Exec.Degraded || fresh.Exec.Stale != 0 {
		t.Errorf("post-recovery run still degraded: %+v", fresh.Exec)
	}
	if !fresh.Result.Equal(warm.Result) {
		t.Error("post-recovery answer differs from the warm answer")
	}
}
