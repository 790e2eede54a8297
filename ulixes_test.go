package ulixes_test

import (
	"runtime"
	"strings"
	"testing"

	"ulixes"
	"ulixes/internal/cost"
	"ulixes/internal/exp"
	"ulixes/internal/optimizer"
	"ulixes/internal/race"
	"ulixes/internal/rewrite"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
	"ulixes/internal/stats"
	"ulixes/internal/view"
)

func openUniversity(t *testing.T) (*sitegen.University, *site.MemSite, *ulixes.System) {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ulixes.Open(ms, u.Scheme, view.UniversityView(u.Scheme))
	if err != nil {
		t.Fatal(err)
	}
	return u, ms, sys
}

func TestOpenCollectsStats(t *testing.T) {
	u, _, sys := openUniversity(t)
	if got := sys.Stats().SchemeCard(sitegen.CoursePage); got != float64(u.Params.Courses) {
		t.Errorf("crawled |CoursePage| = %v", got)
	}
}

func TestFacadeQuery(t *testing.T) {
	_, _, sys := openUniversity(t)
	ans, err := sys.Query("SELECT d.DName, d.Address FROM Dept d")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Result.Len() != 3 {
		t.Errorf("departments = %d", ans.Result.Len())
	}
	q, err := ulixes.ParseQuery("SELECT d.DName, d.Address FROM Dept d")
	if err != nil {
		t.Fatal(err)
	}
	ans2, err := sys.QueryCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if !ans2.Result.Equal(ans.Result) {
		t.Error("QueryCQ should agree with Query")
	}
}

func TestFacadeExplain(t *testing.T) {
	_, _, sys := openUniversity(t)
	out, err := sys.Explain("SELECT p.PName FROM Professor p")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"chosen plan", "estimated cost", "candidate plans"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	if _, err := sys.Explain("not a query"); err == nil {
		t.Error("bad query should fail")
	}
}

func TestFacadeOptions(t *testing.T) {
	_, _, sys := openUniversity(t)
	base, err := sys.Plan("SELECT c.CName FROM Course c WHERE c.Session = 'Fall'")
	if err != nil {
		t.Fatal(err)
	}
	sys.SetOptions(ulixes.Options{DisableRules: rewrite.Rule6})
	ablated, err := sys.Plan("SELECT c.CName FROM Course c WHERE c.Session = 'Fall'")
	if err != nil {
		t.Fatal(err)
	}
	if ablated.Best.Cost <= base.Best.Cost {
		t.Errorf("ablation should cost more: %v vs %v", ablated.Best.Cost, base.Best.Cost)
	}
}

func TestFacadeMaterialize(t *testing.T) {
	u, _, sys := openUniversity(t)
	mv, err := sys.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if mv.Store().Len() != u.Instance.TotalPages() {
		t.Errorf("materialized %d pages", mv.Store().Len())
	}
	ans, err := mv.Query("SELECT p.PName FROM Professor p")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Exec.Pages != 0 {
		t.Errorf("fresh view should not download, got %d", ans.Exec.Pages)
	}
}

func TestOpenWithStats(t *testing.T) {
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys := ulixes.OpenWithStats(ms, u.Scheme, view.UniversityView(u.Scheme), stats.CollectInstance(u.Instance))
	if _, err := sys.Query("SELECT p.PName FROM Professor p"); err != nil {
		t.Fatal(err)
	}
	// No crawl happened: the site saw only the single query's accesses.
	if ms.Counters().Gets() > 2 {
		t.Errorf("OpenWithStats should not crawl; site saw %d gets", ms.Counters().Gets())
	}
}

func TestLargeSiteEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("large site")
	}
	u, err := sitegen.GenerateUniversity(sitegen.UniversityParams{
		Depts: 10, Profs: 300, Courses: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys := ulixes.OpenWithStats(ms, u.Scheme, view.UniversityView(u.Scheme), stats.CollectInstance(u.Instance))
	ans, err := sys.Query(`SELECT p.PName, p.Email
		FROM Professor p, ProfDept pd
		WHERE p.PName = pd.PName AND pd.DName = 'Computer Science'`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Result.Len() != 30 {
		t.Errorf("CS professors = %d, want 30", ans.Result.Len())
	}
	// The chase plan touches ≈ 2 + 30 pages, not 300.
	if ans.PagesFetched > 60 {
		t.Errorf("pages fetched = %d; the optimizer should not scan all professors", ans.PagesFetched)
	}
}

func TestFacadeByteCostUnit(t *testing.T) {
	_, _, sys := openUniversity(t)
	pages, err := sys.Plan("SELECT c.CName FROM Course c WHERE c.Session = 'Fall'")
	if err != nil {
		t.Fatal(err)
	}
	sys.SetOptions(ulixes.Options{Unit: cost.Bytes})
	bytes, err := sys.Plan("SELECT c.CName FROM Course c WHERE c.Session = 'Fall'")
	if err != nil {
		t.Fatal(err)
	}
	// The byte-weighted cost is in HTML bytes: orders of magnitude above
	// the page count, and the chosen plan still navigates the same path.
	if bytes.Best.Cost < 100*pages.Best.Cost {
		t.Errorf("byte cost %v should dwarf page cost %v", bytes.Best.Cost, pages.Best.Cost)
	}
}

// warmSuiteAllocCeiling is the warm path's allocation budget: what one
// warmSuite pass — ten plan-cache hits over resident pages — may allocate.
// The pass allocated 5,018 objects at GOMAXPROCS 1 and 5,025 at 2 and 8
// when the ceiling was set (6,245 before store hits were resolved without
// fetch tasks); the ceiling is under 10 % above that. Lowering it never needs justification; raising it always
// does.
const warmSuiteAllocCeiling = 5500

// TestWarmSuiteAllocs gates the warm path's allocations at GOMAXPROCS 1, 2
// and 8, so neither a new allocation per tuple nor one that only a
// parallel schedule takes can land unnoticed.
func TestWarmSuiteAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	run := warmSuite(t)
	for _, procs := range []int{1, 2, 8} {
		if n, _ := allocsPerRun(procs, 10, func() { run() }); n.objects > warmSuiteAllocCeiling {
			t.Errorf("GOMAXPROCS=%d: a warm pass allocates %.0f objects, ceiling %d", procs, n.objects, warmSuiteAllocCeiling)
		} else {
			t.Logf("GOMAXPROCS=%d: %.0f allocations a pass", procs, n.objects)
		}
	}
}

// rttSuiteAllocCeiling is the navigation path's allocation budget: what one
// rttSuite pass — ten plan-cache hits, each navigating a fresh page store
// over a site without latency — may allocate. The pass allocated 32,578
// objects at GOMAXPROCS 1, 32,613 at 2 and up to 32,740 at 8 when the
// ceiling was set (84,339 to 84,435 while pages were wrapped through an
// element tree); the ceiling is under 10 % above that.
const rttSuiteAllocCeiling = 35500

// TestRTTSuiteAllocs gates the allocations of navigating fresh stores,
// downloads and wrapping included, at GOMAXPROCS 1, 2 and 8.
func TestRTTSuiteAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	run := rttSuite(t, 0)
	for _, procs := range []int{1, 2, 8} {
		if n, _ := allocsPerRun(procs, 10, func() { run() }); n.objects > rttSuiteAllocCeiling {
			t.Errorf("GOMAXPROCS=%d: a navigation pass allocates %.0f objects, ceiling %d", procs, n.objects, rttSuiteAllocCeiling)
		} else {
			t.Logf("GOMAXPROCS=%d: %.0f allocations a pass", procs, n.objects)
		}
	}
}

// allocCount is what a run allocated: objects and bytes (TotalAlloc).
type allocCount struct{ objects, bytes float64 }

// allocsPerRun is testing.AllocsPerRun at a chosen GOMAXPROCS, counting
// bytes beside objects: it returns the mean per run and the least any one
// run allocated. AllocsPerRun itself pins GOMAXPROCS to 1 while it
// measures, so it cannot show what a parallel schedule adds. The least run
// is the measure for code that recycles memory through a sync.Pool: a
// collection may empty the pool, and the run after it pays to refill it.
func allocsPerRun(procs, runs int, f func()) (mean, least allocCount) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
	var before, after runtime.MemStats
	var objects, bytes uint64
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		o, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		objects, bytes = objects+o, bytes+b
		if i == 0 || float64(o) < least.objects {
			least.objects = float64(o)
		}
		if i == 0 || float64(b) < least.bytes {
			least.bytes = float64(b)
		}
	}
	return allocCount{float64(objects) / float64(runs), float64(bytes) / float64(runs)}, least
}

// coldPlanningAllocCeiling and coldPlanningByteCeiling are cold planning's
// budget: what one run of Algorithm 1 on Example 7.2 may allocate once the
// planning arena has been recycled. The run allocated 48,645 objects and
// 3,841,928 bytes at GOMAXPROCS 1, 2 and 8 when the ceilings were set,
// against about 102,000 objects and 51.5 MB before the arena; the ceilings
// are 10 % above that.
const (
	coldPlanningAllocCeiling = 53_500
	coldPlanningByteCeiling  = 4_225_000
)

// TestColdPlanningAllocBudget gates the allocations of planning a new
// shape, Example 7.2, at GOMAXPROCS 1, 2 and 8. It reads the least run of
// a few, so a collection that empties the arena pool once is not charged
// to the planner; an allocation every run makes is.
func TestColdPlanningAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(view.UniversityView(u.Scheme), stats.CollectInstance(u.Instance))
	q, err := ulixes.ParseQuery(exp.Example72Query)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 8} {
		_, least := allocsPerRun(procs, 3, func() {
			if _, err := opt.Optimize(q); err != nil {
				t.Fatal(err)
			}
		})
		if least.objects > coldPlanningAllocCeiling || least.bytes > coldPlanningByteCeiling {
			t.Errorf("GOMAXPROCS=%d: planning Example 7.2 allocates %.0f objects and %.0f bytes, ceilings %d and %d",
				procs, least.objects, least.bytes, coldPlanningAllocCeiling, coldPlanningByteCeiling)
		} else {
			t.Logf("GOMAXPROCS=%d: %.0f allocations, %.0f bytes a plan", procs, least.objects, least.bytes)
		}
	}
}
