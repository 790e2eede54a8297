package optimizer

import (
	"math"
	"strings"
	"testing"

	"ulixes/internal/cq"
	"ulixes/internal/nalg"
	"ulixes/internal/rewrite"
	"ulixes/internal/sitegen"
	"ulixes/internal/stats"
	"ulixes/internal/view"
)

func univOptimizer(t testing.TB) (*sitegen.University, *Optimizer) {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	views := view.UniversityView(u.Scheme)
	return u, New(views, stats.CollectInstance(u.Instance))
}

func mustParse(t testing.TB, src string) *cq.Query {
	t.Helper()
	q, err := cq.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestSingleRelationQuery(t *testing.T) {
	_, o := univOptimizer(t)
	q := mustParse(t, "SELECT p.PName, p.Email FROM Professor p WHERE p.Rank = 'Full'")
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if !nalg.Computable(res.Best.Expr) {
		t.Error("best plan not computable")
	}
	// Rank is only on professor pages: every professor page must be read.
	if res.Best.Cost < 20 || res.Best.Cost > 22 {
		t.Errorf("cost = %v, want ≈ 21 (entry + all professors)", res.Best.Cost)
	}
}

// TestProjectionOnlyQueryUsesAnchors: asking only for professor names
// should be answered from the list page alone (Rules 7+5), cost 1.
func TestProjectionOnlyQueryUsesAnchors(t *testing.T) {
	_, o := univOptimizer(t)
	q := mustParse(t, "SELECT p.PName FROM Professor p")
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Cost != 1 {
		t.Errorf("cost = %v, want 1 (answer from the anchors of the list page)", res.Best.Cost)
	}
	if strings.Contains(res.Best.Expr.String(), "→[") {
		t.Errorf("best plan should not navigate: %s", res.Best.Expr)
	}
}

// TestSelectionPushedThroughConstraint: courses in the fall session — the
// selection moves to the session list anchors, so only the fall session
// page and its courses are downloaded.
func TestSelectionPushedThroughConstraint(t *testing.T) {
	u, o := univOptimizer(t)
	q := mustParse(t, "SELECT c.CName, c.Description FROM Course c WHERE c.Session = 'Fall'")
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	// Entry (1) + fall session page (1) + fall courses (|C|/3).
	want := 2 + float64(u.Params.Courses)/3
	if math.Abs(res.Best.Cost-want) > 1.0 {
		t.Errorf("cost = %v, want ≈ %v", res.Best.Cost, want)
	}
	s := res.Best.Expr.String()
	if !strings.Contains(s, "σ[c$SessionListPage.SesList.Session='Fall']") {
		t.Errorf("selection should sit on the session list: %s", s)
	}
}

// TestExample71PointerJoinWins reproduces Example 7.1: "Name and
// Description of courses taught by full professors in the fall session".
// The optimizer must produce both the pointer-join plan (1d) and the
// pointer-chase plan (2d) and pick the pointer-join one.
func TestExample71PointerJoinWins(t *testing.T) {
	_, o := univOptimizer(t)
	q := mustParse(t, `SELECT c.CName, c.Description
		FROM Professor p, CourseInstructor ci, Course c
		WHERE p.PName = ci.PName AND ci.CName = c.CName
		  AND c.Session = 'Fall' AND p.Rank = 'Full'`)
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best.Expr.String()
	// The winning plan joins the two pointer sets before navigating to the
	// course pages (Rule 8): the final navigation is over the join.
	if !strings.Contains(best, "⋈") {
		t.Errorf("pointer-join plan expected, got: %s", best)
	}
	// Both strategies must be among the candidates.
	var hasChase bool
	for _, c := range res.Candidates {
		s := c.Expr.String()
		// Pointer-chase: no join at all — courses chased from professors.
		if !strings.Contains(s, "⋈") && strings.Contains(s, "→[ToCourse]") {
			hasChase = true
		}
	}
	if !hasChase {
		t.Error("pointer-chase candidate missing from the plan set")
	}
	// The chosen plan is at least as cheap as every candidate.
	for _, c := range res.Candidates {
		if res.Best.Cost > c.Cost+1e-9 {
			t.Errorf("best (%v) more expensive than candidate (%v): %s", res.Best.Cost, c.Cost, c.Expr)
		}
	}
}

// TestExample72PointerChaseWins reproduces Example 7.2: "Name and Email of
// professors in the CS department who teach graduate courses". Here the
// pointer-chase plan is the winner (cost ≈ 25 at the paper's sizes versus
// well over 50 for the pointer-join plan).
func TestExample72PointerChaseWins(t *testing.T) {
	u, o := univOptimizer(t)
	q := mustParse(t, `SELECT p.PName, p.Email
		FROM Course c, CourseInstructor ci, Professor p, ProfDept pd
		WHERE c.CName = ci.CName AND ci.PName = p.PName AND p.PName = pd.PName
		  AND pd.DName = 'Computer Science' AND c.Type = 'Graduate'`)
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: pointer-chase ≈ 2 + |Prof|/|Dept| + |Course|/|Dept| ≈ 25.
	chaseCost := 2 + float64(u.Params.Profs)/float64(u.Params.Depts) + float64(u.Params.Courses)/float64(u.Params.Depts)
	if res.Best.Cost > chaseCost+2 {
		t.Errorf("best cost = %v, want ≤ ≈%v (pointer chase)", res.Best.Cost, chaseCost)
	}
	// A pointer-join candidate costing over 50 must exist (it downloads
	// all course pages).
	foundExpensiveJoin := false
	for _, c := range res.Candidates {
		if strings.Contains(c.Expr.String(), "⋈") && c.Cost > 50 {
			foundExpensiveJoin = true
			break
		}
	}
	if !foundExpensiveJoin {
		t.Error("expensive pointer-join candidate missing")
	}
}

func TestSelfJoinDistinctAliases(t *testing.T) {
	// Two atoms over the same relation: professors sharing a department.
	_, o := univOptimizer(t)
	q := mustParse(t, `SELECT a.PName, b.PName AS Other
		FROM ProfDept a, ProfDept b
		WHERE a.DName = b.DName AND a.PName = 'Prof. 000'`)
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if !nalg.Computable(res.Best.Expr) {
		t.Error("self-join plan not computable")
	}
}

func TestOptimizeErrors(t *testing.T) {
	_, o := univOptimizer(t)
	if _, err := o.Optimize(mustParse(t, "SELECT x.Nope FROM Professor x")); err == nil {
		t.Error("unknown attribute should fail")
	}
	q := &cq.Query{} // invalid
	if _, err := o.Optimize(q); err == nil {
		t.Error("invalid query should fail")
	}
	bad := mustParse(t, "SELECT x.A FROM Unknown x")
	if _, err := o.Optimize(bad); err == nil {
		t.Error("unknown relation should fail")
	}
	dup := mustParse(t, "SELECT p.PName AS A, p.PName AS B FROM Professor p")
	if _, err := o.Optimize(dup); err == nil {
		t.Error("two outputs over one source column should fail")
	}
}

func TestAblationDisablePointerChase(t *testing.T) {
	u, o := univOptimizer(t)
	o.Opts.DisableRules = rewrite.Rule9
	q := mustParse(t, `SELECT p.PName, p.Email
		FROM Course c, CourseInstructor ci, Professor p, ProfDept pd
		WHERE c.CName = ci.CName AND ci.PName = p.PName AND p.PName = pd.PName
		  AND pd.DName = 'Computer Science' AND c.Type = 'Graduate'`)
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	// Without Rule 9, the plan must navigate all courses via the session
	// pages somewhere, so it costs more than the chase plan would.
	chaseCost := 2 + float64(u.Params.Profs)/float64(u.Params.Depts) + float64(u.Params.Courses)/float64(u.Params.Depts)
	if res.Best.Cost <= chaseCost {
		t.Errorf("without Rule 9 cost should exceed %v, got %v", chaseCost, res.Best.Cost)
	}
}

func TestAblationDisableSelectionPush(t *testing.T) {
	_, o := univOptimizer(t)
	qSrc := "SELECT c.CName FROM Course c WHERE c.Session = 'Fall'"
	with, err := o.Optimize(mustParse(t, qSrc))
	if err != nil {
		t.Fatal(err)
	}
	o.Opts.DisableRules = rewrite.Rule6
	without, err := o.Optimize(mustParse(t, qSrc))
	if err != nil {
		t.Fatal(err)
	}
	if without.Best.Cost <= with.Best.Cost {
		t.Errorf("selection pushing should reduce cost: with=%v without=%v", with.Best.Cost, without.Best.Cost)
	}
}

func TestOptionsRules(t *testing.T) {
	o := Options{}
	if o.rules() != rewrite.AllRules {
		t.Error("default rules should be all")
	}
	o.DisableRules = rewrite.Rule9
	if o.rules().Has(rewrite.Rule9) {
		t.Error("disabled rule still present")
	}
	o = Options{Rules: rewrite.Rule6}
	if o.rules() != rewrite.Rule6 {
		t.Error("explicit rules ignored")
	}
}

func TestMeasuredVsEstimated(t *testing.T) {
	if MeasuredVsEstimated(10, 5) != 2 {
		t.Error("ratio wrong")
	}
	if !math.IsInf(MeasuredVsEstimated(10, 0), 1) {
		t.Error("zero measurement should give +Inf")
	}
}

func TestCandidatesSortedByCost(t *testing.T) {
	_, o := univOptimizer(t)
	q := mustParse(t, "SELECT c.CName FROM Course c WHERE c.Session = 'Fall'")
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Candidates); i++ {
		if res.Candidates[i-1].Cost > res.Candidates[i].Cost {
			t.Error("candidates not sorted by cost")
			break
		}
	}
	if res.PlansConsidered < len(res.Candidates) {
		t.Error("considered count should be at least the surviving candidates")
	}
}

func TestSelectStarSingleAtom(t *testing.T) {
	u, o := univOptimizer(t)
	res, err := o.Optimize(mustParse(t, "SELECT * FROM Professor p WHERE p.Rank = 'Full'"))
	if err != nil {
		t.Fatal(err)
	}
	sch, err := nalg.InferSchema(res.Best.Expr, o.Views.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"PName", "Rank", "Email"} {
		if !sch.Has(want) {
			t.Errorf("star expansion missing %q: %v", want, sch.Names())
		}
	}
	_ = u
}

func TestSelectStarJoinDisambiguates(t *testing.T) {
	_, o := univOptimizer(t)
	// Professor and ProfDept both carry PName: star must disambiguate.
	res, err := o.Optimize(mustParse(t, `SELECT * FROM Professor p, ProfDept pd WHERE p.PName = pd.PName`))
	if err != nil {
		t.Fatal(err)
	}
	sch, err := nalg.InferSchema(res.Best.Expr, o.Views.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	if !sch.Has("p_PName") || !sch.Has("pd_PName") {
		t.Errorf("star should alias colliding attributes: %v", sch.Names())
	}
}

func TestSelectStarUnknownRelation(t *testing.T) {
	_, o := univOptimizer(t)
	if _, err := o.Optimize(mustParse(t, "SELECT * FROM Unknown u")); err == nil {
		t.Error("star over unknown relation should fail")
	}
}
