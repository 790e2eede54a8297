package engine

import (
	"fmt"
	"testing"

	"ulixes/internal/plancache"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
	"ulixes/internal/stats"
	"ulixes/internal/view"
)

// twinEngines returns two engines over one site and one statistics set:
// the first with a prepared-plan cache attached, the second without.
func twinEngines(t *testing.T) (*Engine, *Engine) {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	views := view.UniversityView(u.Scheme)
	st := stats.CollectInstance(u.Instance)
	cachedEng := New(views, ms, st)
	cachedEng.Plans = plancache.New(plancache.Config{})
	return cachedEng, New(views, ms, st)
}

// TestPlanCacheEquivalence runs a repeated-shape workload through a cached
// and an uncached engine: answers, chosen plans, costs and page-access
// counts must be byte-identical, and ≥90% of the queries must be plan-cache
// hits (only the first query of each shape pays Algorithm 1).
func TestPlanCacheEquivalence(t *testing.T) {
	cached, plain := twinEngines(t)
	var queries []string
	for i := 0; i < 10; i++ {
		rank := []string{"Full", "Associate", "Assistant"}[i%3]
		queries = append(queries,
			fmt.Sprintf("SELECT p.PName, p.Rank FROM Professor p WHERE p.Rank = '%s'", rank),
			fmt.Sprintf(`SELECT c.CName FROM Professor p, CourseInstructor ci, Course c
				WHERE p.PName = ci.PName AND ci.CName = c.CName AND p.Rank = '%s'`, rank),
		)
	}
	for i, src := range queries {
		a, err := cached.Query(src)
		if err != nil {
			t.Fatalf("query %d (cached): %v", i, err)
		}
		b, err := plain.Query(src)
		if err != nil {
			t.Fatalf("query %d (plain): %v", i, err)
		}
		if got, want := a.Result.String(), b.Result.String(); got != want {
			t.Fatalf("query %d: cached answer differs:\n%s\nwant:\n%s", i, got, want)
		}
		if got, want := a.Plan.Expr.String(), b.Plan.Expr.String(); got != want {
			t.Fatalf("query %d: cached plan differs: %s, want %s", i, got, want)
		}
		if a.Plan.Cost != b.Plan.Cost {
			t.Fatalf("query %d: cached cost %v, want %v", i, a.Plan.Cost, b.Plan.Cost)
		}
		if a.PagesFetched != b.PagesFetched {
			t.Fatalf("query %d: cached pages %d, want %d", i, a.PagesFetched, b.PagesFetched)
		}
		wantCached := i >= 2
		if a.Exec.PlanCached != wantCached {
			t.Fatalf("query %d: PlanCached = %v, want %v", i, a.Exec.PlanCached, wantCached)
		}
		// Only the query that planned its shape lists the candidates.
		if wantCands := len(b.Candidates); wantCached && a.Candidates != nil || !wantCached && len(a.Candidates) != wantCands {
			t.Fatalf("query %d: cached candidates %d, want %d", i, len(a.Candidates), wantCands)
		}
		if b.Exec.PlanCached {
			t.Fatalf("query %d: uncached engine reported PlanCached", i)
		}
	}
	c := cached.Plans.Counters()
	if c.Misses != 2 || c.Hits != uint64(len(queries)-2) {
		t.Fatalf("counters = %+v, want 2 misses and %d hits", c, len(queries)-2)
	}
	if rate := float64(c.Hits) / float64(c.Hits+c.Misses); rate < 0.9 {
		t.Fatalf("hit rate %.2f < 0.90", rate)
	}
	if c.Entries != 2 {
		t.Fatalf("entries = %d, want 2", c.Entries)
	}
}

// TestPlanCacheNewStatsReplan hands the engine new statistics — a copy
// with every page-scheme cardinality doubled — the way a refresh does: the
// cached plan, keyed to the old value, must not be reused, the query must
// be re-planned and still answer the same, and the new plan must serve
// hits again.
func TestPlanCacheNewStatsReplan(t *testing.T) {
	cached, _ := twinEngines(t)
	const src = "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"
	first, err := cached.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cached.Query(src); err != nil {
		t.Fatal(err)
	}
	if c := cached.Plans.Counters(); c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("warm counters = %+v, want 1 hit / 1 miss", c)
	}
	refreshed := *cached.Opt.Stats
	refreshed.Card = make(map[string]float64, len(refreshed.Card))
	for k, v := range cached.Opt.Stats.Card {
		refreshed.Card[k] = 2 * v
	}
	cached.Opt.Stats = &refreshed
	again, err := cached.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if again.Exec.PlanCached {
		t.Fatal("a plan costed under the old statistics was reused")
	}
	if c := cached.Plans.Counters(); c.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (re-plan under the new statistics)", c.Misses)
	}
	if again.Result.String() != first.Result.String() {
		t.Fatalf("answer changed under the new statistics:\n%s\nwant:\n%s", again.Result, first.Result)
	}
	// The re-planned entry serves hits again.
	if a, err := cached.Query(src); err != nil || !a.Exec.PlanCached {
		t.Fatalf("query after the re-plan: err=%v, want a plan-cache hit", err)
	}
	if c := cached.Plans.Counters(); c.Hits != 2 || c.Misses != 2 {
		t.Fatalf("counters = %+v, want 2 hits / 2 misses after the re-plan", c)
	}
}

// TestPlanCacheConstantFreeShape covers shapes without constants: they
// cache under their own key and hit on repetition.
func TestPlanCacheConstantFreeShape(t *testing.T) {
	cached, plain := twinEngines(t)
	const src = "SELECT d.DName, d.Address FROM Dept d"
	a1, err := cached.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := cached.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plain.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Result.String() != b.Result.String() || a2.Result.String() != b.Result.String() {
		t.Fatal("constant-free answers differ between cached and plain engines")
	}
	if !a2.Exec.PlanCached {
		t.Fatal("second constant-free query should hit the plan cache")
	}
}
