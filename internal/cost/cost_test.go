package cost

import (
	"math"
	"testing"

	"ulixes/internal/adm"
	"ulixes/internal/nalg"
	"ulixes/internal/nested"
	"ulixes/internal/sitegen"
	"ulixes/internal/stats"
)

func paperModel(t *testing.T) (*sitegen.University, *Model) {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	return u, &Model{Scheme: u.Scheme, Stats: stats.CollectInstance(u.Instance)}
}

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want ≈ %v", name, got, want)
	}
}

func TestEntryScanCost(t *testing.T) {
	u, m := paperModel(t)
	e := nalg.From(u.Scheme, sitegen.ProfListPage).MustBuild()
	est, err := m.Estimate(e)
	if err != nil {
		t.Fatal(err)
	}
	if est.Cost != 1 || est.Card != 1 {
		t.Errorf("entry estimate = %+v", est)
	}
}

func TestUnnestCardinality(t *testing.T) {
	u, m := paperModel(t)
	e := nalg.From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").MustBuild()
	est, err := m.Estimate(e)
	if err != nil {
		t.Fatal(err)
	}
	// |R ◦ L| = |R| × |L| = 1 × 20.
	approx(t, "card", est.Card, float64(u.Params.Profs), 1e-9)
	if est.Cost != 1 {
		t.Errorf("unnest should add no cost: %v", est.Cost)
	}
	if d, _ := est.Distinct("ProfListPage.ProfList.ToProf"); d != float64(u.Params.Profs) {
		t.Errorf("distinct(ToProf) = %v", d)
	}
}

func TestFollowCost(t *testing.T) {
	u, m := paperModel(t)
	e := nalg.From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild()
	est, err := m.Estimate(e)
	if err != nil {
		t.Fatal(err)
	}
	// 1 entry + 20 distinct professor links.
	approx(t, "cost", est.Cost, 1+float64(u.Params.Profs), 1e-9)
	approx(t, "card", est.Card, float64(u.Params.Profs), 1e-9)
}

func TestSelectionReducesFollowCost(t *testing.T) {
	u, m := paperModel(t)
	// σ Session='Fall' before navigating: only one session page downloaded.
	e := nalg.From(u.Scheme, sitegen.SessionListPage).
		Unnest("SesList").
		Where(nested.Eq("SessionListPage.SesList.Session", "Fall")).
		Follow("ToSes").
		MustBuild()
	est, err := m.Estimate(e)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "cost", est.Cost, 2, 1e-9) // entry + 1 session page
	approx(t, "card", est.Card, 1, 1e-9)
}

// TestExample72PointerChaseCost reproduces the cost formula of Example 7.2:
// C(2) = 1 + 1 + |ProfPage|/|DeptPage| + |CoursePage|/|DeptPage| ≈ 25 at the
// paper's sizes (the paper quotes "approximately 23"; the formula gives
// 2 + 20/3 + 50/3 = 25.3).
func TestExample72PointerChaseCost(t *testing.T) {
	u, m := paperModel(t)
	e := nalg.From(u.Scheme, sitegen.DeptListPage).
		Unnest("DeptList").
		Where(nested.Eq("DeptListPage.DeptList.DeptName", "Computer Science")).
		Follow("ToDept").
		Unnest("ProfList").
		Follow("ToProf").
		Unnest("CourseList").
		Follow("ToCourse").
		Where(nested.Eq("CoursePage.Type", "Graduate")).
		MustBuild()
	est, err := m.Estimate(e)
	if err != nil {
		t.Fatal(err)
	}
	profs := float64(u.Params.Profs)
	courses := float64(u.Params.Courses)
	depts := float64(u.Params.Depts)
	want := 1 + 1 + profs/depts + courses/depts
	approx(t, "C(pointer-chase)", est.Cost, want, 1.0)
	if est.Cost > 30 {
		t.Errorf("pointer-chase cost %v should be well under the pointer-join cost", est.Cost)
	}
}

// TestExample72PointerJoinCost reproduces C(1) of Example 7.2: the
// pointer-join plan must download all session and course pages, so its cost
// exceeds |CoursePage| and is "well over 50".
func TestExample72PointerJoinCost(t *testing.T) {
	u, m := paperModel(t)
	// Left side: CS department's professor links.
	left := nalg.From(u.Scheme, sitegen.DeptListPage).
		Unnest("DeptList").
		Where(nested.Eq("DeptListPage.DeptList.DeptName", "Computer Science")).
		Follow("ToDept").
		Unnest("ProfList").
		MustBuild()
	// Right side: links to instructors of graduate courses.
	right := nalg.From(u.Scheme, sitegen.SessionListPage).
		Unnest("SesList").
		Follow("ToSes").
		Unnest("CourseList").
		Follow("ToCourse").
		Where(nested.Eq("CoursePage.Type", "Graduate")).
		MustBuild()
	j := &nalg.Join{L: left, R: right, Conds: []nested.EqCond{{
		Left:  "DeptPage.ProfList.ToProf",
		Right: "CoursePage.ToProf",
	}}}
	plan := &nalg.Follow{In: j, Link: "CoursePage.ToProf", Target: sitegen.ProfPage}
	est, err := m.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if est.Cost < 50 {
		t.Errorf("pointer-join cost %v should be well over 50 (downloads all courses)", est.Cost)
	}
	chase := 1 + 1 + float64(u.Params.Profs)/3 + float64(u.Params.Courses)/3
	if est.Cost <= chase {
		t.Errorf("pointer-join (%v) should cost more than pointer-chase (%v) in Example 7.2", est.Cost, chase)
	}
}

func TestJoinSelectivityDefault(t *testing.T) {
	u, m := paperModel(t)
	l := nalg.From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").MustBuild()
	r := nalg.From(u.Scheme, sitegen.DeptListPage).Unnest("DeptList").MustBuild()
	j := &nalg.Join{L: l, R: r, Conds: []nested.EqCond{{
		Left:  "ProfListPage.ProfList.ProfName",
		Right: "DeptListPage.DeptList.DeptName",
	}}}
	est, err := m.Estimate(j)
	if err != nil {
		t.Fatal(err)
	}
	// 20 × 3 / max(20, 3) = 3.
	approx(t, "join card", est.Card, 3, 1e-9)
	if est.Cost != 2 {
		t.Errorf("join cost = %v (should be the two entries)", est.Cost)
	}
	_ = u
}

func TestJoinSelectivityOverride(t *testing.T) {
	u, m := paperModel(t)
	a := ref("ProfListPage", "ProfList.ProfName")
	b := ref("DeptListPage", "DeptList.DeptName")
	m.Stats.SetJoinSel(a, b, 0.5)
	l := nalg.From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").MustBuild()
	r := nalg.From(u.Scheme, sitegen.DeptListPage).Unnest("DeptList").MustBuild()
	j := &nalg.Join{L: l, R: r, Conds: []nested.EqCond{{
		Left:  "ProfListPage.ProfList.ProfName",
		Right: "DeptListPage.DeptList.DeptName",
	}}}
	est, err := m.Estimate(j)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "join card with override", est.Card, 30, 1e-9)
}

func TestCartesianProduct(t *testing.T) {
	u, m := paperModel(t)
	l := nalg.From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").MustBuild()
	r := nalg.From(u.Scheme, sitegen.DeptListPage).Unnest("DeptList").MustBuild()
	j := &nalg.Join{L: l, R: r}
	est, err := m.Estimate(j)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "cartesian card", est.Card, 60, 1e-9)
	_ = u
}

func TestProjectionCardinality(t *testing.T) {
	u, m := paperModel(t)
	// π DName over all professor rows: 3 departments.
	e := nalg.From(u.Scheme, sitegen.ProfListPage).
		Unnest("ProfList").
		Follow("ToProf").
		Project("ProfPage.DName").
		MustBuild()
	est, err := m.Estimate(e)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "π card", est.Card, float64(u.Params.Depts), 1e-9)
}

func TestRenameKeepsEstimates(t *testing.T) {
	u, m := paperModel(t)
	in := nalg.From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").MustBuild()
	e := &nalg.Rename{In: in, Map: map[string]string{"ProfListPage.ProfList.ProfName": "PName"}}
	est, err := m.Estimate(e)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := est.Distinct("PName"); d != float64(u.Params.Profs) {
		t.Errorf("renamed distinct = %v", d)
	}
	if _, ok := est.Distinct("ProfListPage.ProfList.ProfName"); ok {
		t.Error("old name should be gone from estimates")
	}
}

func TestNonEqSelectivity(t *testing.T) {
	u, m := paperModel(t)
	e := nalg.From(u.Scheme, sitegen.ProfListPage).
		Unnest("ProfList").
		Where(nested.ConstPred{Attr: "ProfListPage.ProfList.ProfName", Op: nested.OpGt, Val: nested.TextValue("m")}).
		MustBuild()
	est, err := m.Estimate(e)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "range selectivity", est.Card, float64(u.Params.Profs)/2, 1e-9)
	// Attribute-to-attribute equality predicate.
	e2 := nalg.From(u.Scheme, sitegen.ProfListPage).
		Unnest("ProfList").
		Follow("ToProf").
		Where(nested.AttrPred{Left: "ProfPage.Name", Op: nested.OpEq, Right: "ProfListPage.ProfList.ProfName"}).
		MustBuild()
	est2, err := m.Estimate(e2)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "attr-eq card", est2.Card, 1, 1e-9)
}

func TestCostErrors(t *testing.T) {
	u, m := paperModel(t)
	if _, err := m.Estimate(&nalg.ExtScan{Relation: "R"}); err == nil {
		t.Error("ExtScan should not be costable")
	}
	if _, err := m.Cost(&nalg.ExtScan{Relation: "R"}); err == nil {
		t.Error("Cost of ExtScan should fail")
	}
	bad := &nalg.Unnest{In: nalg.From(u.Scheme, sitegen.ProfListPage).MustBuild(), Attr: "Missing"}
	if _, err := m.Estimate(bad); err == nil {
		t.Error("bad unnest should fail")
	}
}

func TestCostMonotoneInPlanLength(t *testing.T) {
	u, m := paperModel(t)
	short := nalg.From(u.Scheme, sitegen.SessionListPage).Unnest("SesList").Follow("ToSes").MustBuild()
	long := nalg.From(u.Scheme, sitegen.SessionListPage).Unnest("SesList").Follow("ToSes").
		Unnest("CourseList").Follow("ToCourse").MustBuild()
	cs, err := m.Cost(short)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := m.Cost(long)
	if err != nil {
		t.Fatal(err)
	}
	if cl <= cs {
		t.Errorf("longer navigation should cost more: %v vs %v", cl, cs)
	}
	_ = u
}

func ref(s, p string) adm.AttrRef { return adm.AttrRef{Scheme: s, Path: adm.ParsePath(p)} }

func TestByteWeightedCost(t *testing.T) {
	u, m := paperModel(t)
	// Assign synthetic page sizes: the professor list page is huge, the
	// professor pages small.
	m.Stats.PageBytes[sitegen.ProfListPage] = 10000
	m.Stats.PageBytes[sitegen.ProfPage] = 500
	pagesModel := &Model{Scheme: m.Scheme, Stats: m.Stats, Unit: Pages}
	bytesModel := &Model{Scheme: m.Scheme, Stats: m.Stats, Unit: Bytes}
	e := nalg.From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild()
	cp, err := pagesModel.Cost(e)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := bytesModel.Cost(e)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "pages cost", cp, 21, 1e-9)
	// 1 list page × 10000 + 20 professor pages × 500.
	approx(t, "bytes cost", cb, 10000+20*500, 1e-9)
}

func TestByteCostDefaultsToPages(t *testing.T) {
	u, m := paperModel(t)
	// No PageBytes recorded: the byte unit degrades to page counting.
	bytesModel := &Model{Scheme: m.Scheme, Stats: m.Stats, Unit: Bytes}
	e := nalg.From(u.Scheme, sitegen.DeptListPage).Unnest("DeptList").Follow("ToDept").MustBuild()
	cb, err := bytesModel.Cost(e)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "degraded bytes cost", cb, 4, 1e-9)
}

func TestSelectivityOfOrPredAndDefaults(t *testing.T) {
	u, m := paperModel(t)
	// A non-equality attr-to-attr predicate gets the 1/2 default.
	e := nalg.From(u.Scheme, sitegen.ProfListPage).
		Unnest("ProfList").
		Follow("ToProf").
		Where(nested.AttrPred{Left: "ProfPage.Name", Op: nested.OpNe, Right: "ProfListPage.ProfList.ProfName"}).
		MustBuild()
	est, err := m.Estimate(e)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "≠ predicate card", est.Card, float64(u.Params.Profs)/2, 1e-9)
}

func TestEstimateCachesFailures(t *testing.T) {
	_, m := paperModel(t)
	bad := &nalg.ExtScan{Relation: "R"}
	if _, err := m.Estimate(bad); err == nil {
		t.Fatal("first estimate should fail")
	}
	// The negative result is cached; the second call errors identically.
	if _, err := m.Estimate(bad); err == nil {
		t.Fatal("cached failure should still fail")
	}
}

func TestCostOfRenameOverJoin(t *testing.T) {
	u, m := paperModel(t)
	l := nalg.From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").MustBuild()
	r := nalg.From(u.Scheme, sitegen.DeptListPage).Unnest("DeptList").MustBuild()
	j := &nalg.Join{L: l, R: r, Conds: []nested.EqCond{{
		Left:  "ProfListPage.ProfList.ProfName",
		Right: "DeptListPage.DeptList.DeptName",
	}}}
	ren := &nalg.Rename{In: j, Map: map[string]string{"ProfListPage.ProfList.ProfName": "X"}}
	est, err := m.Estimate(ren)
	if err != nil {
		t.Fatal(err)
	}
	if est.Cost != 2 {
		t.Errorf("rename should not change cost: %v", est.Cost)
	}
}

// TestRetryOverheadInflatesCost: with expected retry traffic the model
// multiplies every page access by 1+RetryOverhead, keeping estimates
// comparable to measured costs under a faulty site.
func TestRetryOverheadInflatesCost(t *testing.T) {
	u, m := paperModel(t)
	e := nalg.From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild()
	base, err := m.Estimate(e)
	if err != nil {
		t.Fatal(err)
	}
	retry := &Model{Scheme: m.Scheme, Stats: m.Stats, RetryOverhead: 0.25}
	est, err := retry.Estimate(e)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "cost", est.Cost, base.Cost*1.25, 1e-9)
	approx(t, "card", est.Card, base.Card, 1e-9)
}

// TestWarmEstimate: §8's warm-store formula — every distinct access costs a
// light connection, and only the changed fraction is re-downloaded. The
// retry overhead inflates only the downloads (HEADs are retried too, but
// the model folds that into the light-connection count staying at C(E)).
func TestWarmEstimate(t *testing.T) {
	u, m := paperModel(t)
	e := nalg.From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild()
	est, err := m.Estimate(e)
	if err != nil {
		t.Fatal(err)
	}

	w, err := m.Warm(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "Warm(0).LightConnections", w.LightConnections, est.Cost, 1e-9)
	approx(t, "Warm(0).Downloads", w.Downloads, 0, 1e-9)

	w, err = m.Warm(e, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "Warm(0.25).Downloads", w.Downloads, est.Cost*0.25, 1e-9)

	// Out-of-range change rates clamp instead of extrapolating.
	w, err = m.Warm(e, 2)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "Warm(2).Downloads", w.Downloads, est.Cost, 1e-9)

	// Under retry overhead the distinct-access count C(E) is recovered
	// from the inflated estimate, and downloads are re-inflated.
	m.RetryOverhead = 0.5
	infl, err := m.Estimate(e)
	if err != nil {
		t.Fatal(err)
	}
	w, err = m.Warm(e, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "Warm.LightConnections under overhead", w.LightConnections, infl.Cost/1.5, 1e-9)
	approx(t, "Warm.Downloads under overhead", w.Downloads, (infl.Cost/1.5)*0.2*1.5, 1e-9)
}

// TestHedgeAndStaleTerms: hedged GETs inflate the access cost like retries,
// and the stale-served fraction of a warm plan costs no network at all.
func TestHedgeAndStaleTerms(t *testing.T) {
	u, m := paperModel(t)
	e := nalg.From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild()
	base, err := m.Estimate(e)
	if err != nil {
		t.Fatal(err)
	}

	// Retry and hedge overheads compound additively: each access costs the
	// first attempt, the expected retries, and the expected hedges.
	hedged := &Model{Scheme: m.Scheme, Stats: m.Stats, RetryOverhead: 0.25, HedgeOverhead: 0.1}
	est, err := hedged.Estimate(e)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "hedged cost", est.Cost, base.Cost*1.35, 1e-9)
	approx(t, "hedged card", est.Card, base.Card, 1e-9)

	// Warm recovers C(E) by dividing out the same multiplier it applied, so
	// the accounting stays consistent however the overheads are configured.
	w, err := hedged.Warm(e, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	accesses := est.Cost / 1.35
	approx(t, "hedged Warm.LightConnections", w.LightConnections, accesses, 1e-9)
	approx(t, "hedged Warm.Downloads", w.Downloads, accesses*0.2*1.35, 1e-9)
	approx(t, "hedged Warm.Stale", w.Stale, 0, 1e-9)

	// With a quarter of the origins behind open breakers, a quarter of the
	// accesses are served stale: no light connection, no download.
	sick := &Model{Scheme: m.Scheme, Stats: m.Stats, StaleRate: 0.25}
	w, err = sick.Warm(e, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "sick Warm.LightConnections", w.LightConnections, base.Cost*0.75, 1e-9)
	approx(t, "sick Warm.Downloads", w.Downloads, base.Cost*0.75*0.2, 1e-9)
	approx(t, "sick Warm.Stale", w.Stale, base.Cost*0.25, 1e-9)

	// Negative configuration clamps: the multiplier never drops below the
	// one mandatory attempt, and the stale fraction stays in [0,1].
	neg := &Model{Scheme: m.Scheme, Stats: m.Stats, RetryOverhead: -2, HedgeOverhead: -1, StaleRate: -0.5}
	est, err = neg.Estimate(e)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "clamped cost", est.Cost, base.Cost, 1e-9)
	w, err = neg.Warm(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "clamped Warm.Stale", w.Stale, 0, 1e-9)
}
