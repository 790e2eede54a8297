package exp

import (
	"fmt"
	"strings"
	"time"

	"ulixes/internal/cq"
	"ulixes/internal/engine"
	"ulixes/internal/faults"
	"ulixes/internal/guard"
	"ulixes/internal/pagecache"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
	"ulixes/internal/stats"
	"ulixes/internal/view"
)

// p5Hosts partitions the university's URLs into three virtual hosts by path
// segment, so the guard tracks an independent breaker and bulkhead per
// section of the site. Every university URL contains exactly one of the
// three segments (the index pages /profs.html, /depts.html, /courses.html
// included).
func p5HostOf(url string) string {
	switch {
	case strings.Contains(url, "/prof"):
		return "prof.univ"
	case strings.Contains(url, "/dept"):
		return "dept.univ"
	case strings.Contains(url, "/course"):
		return "course.univ"
	default:
		return "other.univ"
	}
}

// p5Queries hits one virtual host each: entry page plus every leaf page of
// the section.
var p5Queries = []struct{ host, src string }{
	{"dept.univ", "SELECT d.DName, d.Address FROM Dept d"},
	{"course.univ", "SELECT c.CName, c.Session FROM Course c"},
	{"prof.univ", "SELECT p.PName, p.Rank FROM Professor p"},
}

// P5 measures the site-health guard under a partial outage. The university
// is split into three virtual hosts (dept, course, prof). A warmed shared
// store expires, then the prof host goes down hard (every attempt fails):
//
//   - the healthy hosts are untouched — their queries revalidate exactly as
//     if nothing happened (per-host breakers and bulkheads isolate them);
//   - the sick host's query degrades instead of failing: after the EWMA
//     breaker trips, every expired access is answered from the stale copy
//     with a local fast-fail in place of a network connection, and the
//     answer is bit-identical to the fresh one;
//   - once the host heals and the breaker's open window lapses, the next
//     query revalidates everything and the counters return to normal.
//
// A final phase measures hedged fetches: the first GET of every dept page
// stalls, and the guard's hedge (a second GET after a fixed delay) wins
// each race, bounding tail latency at one hedge interval per page.
//
// All counters are exact: the clock is manual, faults are deterministic,
// and the evaluator runs with one worker.
func P5(params sitegen.UniversityParams) (*Table, error) {
	u, err := sitegen.GenerateUniversity(params)
	if err != nil {
		return nil, err
	}
	st := stats.CollectInstance(u.Instance)

	queries := make([]*cq.Query, len(p5Queries))
	for i, q := range p5Queries {
		if queries[i], err = cq.Parse(q.src); err != nil {
			return nil, fmt.Errorf("P5: %w", err)
		}
	}

	// Baseline: fresh answers and per-query access counts on a pristine site.
	coldSite, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		return nil, err
	}
	coldEng := engine.New(view.UniversityView(u.Scheme), coldSite, st)
	coldAnswers := make([]string, len(queries))
	accesses := make([]int, len(queries))
	for i, q := range queries {
		ans, err := coldEng.QueryCQ(q)
		if err != nil {
			return nil, fmt.Errorf("P5 cold query %d: %w", i, err)
		}
		coldAnswers[i] = ans.Result.String()
		accesses[i] = ans.Exec.Pages
	}

	// The guarded system: chaos layer under the guard, shared store above it.
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		return nil, err
	}
	chaos := faults.New(ms, 1998)
	now := time.Date(1998, time.March, 23, 0, 0, 0, 0, time.UTC)
	clk := func() time.Time { return now }
	g := guard.New(chaos, guard.Config{
		HostOf: p5HostOf,
		Clock:  clk,
		// After the warm phase the prof host's error EWMA sits near zero,
		// so with Alpha=0.5 one failure reaches 0.5 and a second 0.75: the
		// 0.6 threshold deterministically requires exactly two failures.
		ErrorThreshold: 0.6,
		OpenFor:        30 * time.Second,
	})
	cache := pagecache.New(g, u.Scheme, pagecache.Config{
		DefaultTTL: 60 * time.Second,
		Clock:      clk,
		Retry:      site.RetryPolicy{MaxRetries: 5, Seed: 1998},
		Sleeper:    &site.InstantSleeper{},
	})
	eng := engine.New(view.UniversityView(u.Scheme), g, st)
	eng.Exec = engine.ExecOptions{Cache: cache, Workers: 1, Degraded: true}

	t := &Table{
		ID: "P5",
		Title: fmt.Sprintf("Site-health guard: 3 virtual hosts, prof host down hard after warm-up (%d+%d+%d accesses), 60s TTL, 30s breaker window",
			accesses[0], accesses[1], accesses[2]),
		Header: []string{"phase", "query", "GETs", "revalidations", "stale", "fast-fails", "prof breaker"},
	}

	run := func(phase string, i int, wantPages, wantRevals, wantStale int, wantDegraded bool) error {
		ans, err := eng.QueryCQ(queries[i])
		if err != nil {
			return fmt.Errorf("P5 %s query %d: %w", phase, i, err)
		}
		ex := ans.Exec
		if ans.Result.String() != coldAnswers[i] {
			return fmt.Errorf("P5 %s query %d: answer differs from the fresh one", phase, i)
		}
		if got := ex.Pages + ex.CacheHits + ex.Revalidations + ex.Stale; got != accesses[i] {
			return fmt.Errorf("P5 %s query %d: %d distinct accesses, cold run had %d", phase, i, got, accesses[i])
		}
		if ex.Pages != wantPages || ex.Revalidations != wantRevals || ex.Stale != wantStale {
			return fmt.Errorf("P5 %s query %d: GETs=%d revals=%d stale=%d, want %d/%d/%d",
				phase, i, ex.Pages, ex.Revalidations, ex.Stale, wantPages, wantRevals, wantStale)
		}
		if ex.Degraded != wantDegraded {
			return fmt.Errorf("P5 %s query %d: Degraded=%v, want %v", phase, i, ex.Degraded, wantDegraded)
		}
		if wantStale > 0 && ex.BreakerFastFails != wantStale {
			return fmt.Errorf("P5 %s query %d: %d fast-fails, want %d (one per stale serve)", phase, i, ex.BreakerFastFails, wantStale)
		}
		t.AddRow(phase, p5Queries[i].host, d(ex.Pages), d(ex.Revalidations), d(ex.Stale), d(ex.BreakerFastFails),
			g.StateOf("prof.univ").String())
		return nil
	}

	// Phase 1: warm every host through the guard and the shared store.
	for i := range queries {
		if err := run("warm", i, accesses[i], 0, 0, false); err != nil {
			return nil, err
		}
	}

	// Phase 2: the leases expire and the prof host goes down hard.
	now = now.Add(61 * time.Second)
	chaos.SetRules(faults.Rule{Pattern: "/prof", Kind: faults.Transient, Rate: 1})
	for i := 0; i < 2; i++ { // healthy hosts: pure revalidation, no degradation
		if err := run("prof down", i, 0, accesses[i], 0, false); err != nil {
			return nil, err
		}
	}
	// Sick host: two HEAD failures trip the breaker, then every access is
	// served from the expired copy with one local fast-fail.
	if err := run("prof down", 2, 0, 0, accesses[2], true); err != nil {
		return nil, err
	}
	if got := g.StateOf("prof.univ"); got != guard.Open {
		return nil, fmt.Errorf("P5: prof breaker %v after outage, want open", got)
	}
	for _, host := range []string{"dept.univ", "course.univ"} {
		if got := g.StateOf(host); got != guard.Closed {
			return nil, fmt.Errorf("P5: %s breaker %v during the prof outage, want closed", host, got)
		}
	}

	// Phase 3: the host heals, the open window lapses, the probe succeeds.
	chaos.SetRules()
	now = now.Add(31 * time.Second)
	if err := run("healed +31s", 2, 0, accesses[2], 0, false); err != nil {
		return nil, err
	}

	// Phase 4: hedged fetches on a separate cold system — the first GET of
	// every dept page stalls until canceled; the hedge fires and wins.
	hedges, hedgeWins, hedgePages, err := p5Hedge(u, st, queries[0], coldAnswers[0])
	if err != nil {
		return nil, err
	}
	t.AddRow("stall+hedge", "dept.univ", d(hedgePages), "0", "0", "0",
		fmt.Sprintf("%d hedges, %d won", hedges, hedgeWins))

	t.AddNote("while the prof breaker is open the prof query's answer is bit-identical to the fresh one, served entirely from expired store entries: zero GETs, zero HEADs reach the host — each access costs one local fast-fail")
	t.AddNote("the healthy hosts never notice the outage: per-host breakers and bulkheads keep dept/course revalidation traffic identical to a no-fault run")
	t.AddNote("every phase preserves the paper's invariant: GETs + hits + revalidations + stale serves = C(E), the plan's distinct-access count")
	t.AddNote("hedge phase: each dept page's first GET stalls forever; the guard's second GET after the hedge delay wins every race and the stalled loser is canceled — tail latency is bounded by one hedge interval per page")
	return t, nil
}

// p5Hedge runs the dept query cold against a site whose dept leaf pages
// stall on their first GET, with hedging enabled, and returns the exact
// hedge counters.
func p5Hedge(u *sitegen.University, st *stats.Stats, q *cq.Query, want string) (hedges, wins, pages int, err error) {
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	chaos := faults.New(ms, 1998, faults.Rule{Pattern: "/dept/", Kind: faults.Stall, First: 1})
	g := guard.New(chaos, guard.Config{
		HostOf:     p5HostOf,
		HedgeAfter: 20 * time.Millisecond,
	})
	eng := engine.New(view.UniversityView(u.Scheme), g, st)
	eng.Exec = engine.ExecOptions{Workers: 1}
	ans, err := eng.QueryCQ(q)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("P5 hedge query: %w", err)
	}
	if ans.Result.String() != want {
		return 0, 0, 0, fmt.Errorf("P5 hedge query: answer differs from the fresh one")
	}
	ex := ans.Exec
	if ex.Hedges != ex.HedgeWins {
		return 0, 0, 0, fmt.Errorf("P5 hedge query: %d hedges but %d wins — the stalled primary can never win", ex.Hedges, ex.HedgeWins)
	}
	if ex.Hedges == 0 {
		return 0, 0, 0, fmt.Errorf("P5 hedge query: no hedges fired against stalled GETs")
	}
	return ex.Hedges, ex.HedgeWins, ex.Pages, nil
}
