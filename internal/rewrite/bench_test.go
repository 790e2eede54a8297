package rewrite

import (
	"testing"

	"ulixes/internal/nalg"
	"ulixes/internal/nested"
	"ulixes/internal/sitegen"
)

// BenchmarkExpandSelectionPush measures the enumeration of selection-push
// variants over a mid-size plan.
func BenchmarkExpandSelectionPush(b *testing.B) {
	ws := sitegen.UniversityScheme()
	nav := nalg.From(ws, sitegen.SessionListPage).
		Unnest("SesList").Follow("ToSes").Unnest("CourseList").Follow("ToCourse").MustBuild()
	seed := &nalg.Select{In: nav, Pred: nested.Eq("CoursePage.Session", "Fall")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rw := &Rewriter{WS: ws, Rules: Rule6}
		plans := rw.Expand([]nalg.Expr{seed}, 0)
		if len(plans) < 2 {
			b.Fatal("expansion produced too few plans")
		}
	}
}

// BenchmarkRulePointerMatch measures the Rule 8/9 pattern matcher on the
// Example 7.1 join.
func BenchmarkRulePointerMatch(b *testing.B) {
	ws := sitegen.UniversityScheme()
	left := nalg.From(ws, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").Unnest("CourseList").MustBuild()
	right := nalg.From(ws, sitegen.SessionListPage).Unnest("SesList").Follow("ToSes").Unnest("CourseList").Follow("ToCourse").MustBuild()
	j := &nalg.Join{L: left, R: right, Conds: []nested.EqCond{{
		Left:  "ProfPage.CourseList.CName",
		Right: "CoursePage.CName",
	}}}
	rw := &Rewriter{WS: ws, Rules: AllRules}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(rw.rule8(j)) == 0 || len(rw.rule9(j)) == 0 {
			b.Fatal("rules did not fire")
		}
	}
}

// BenchmarkInternKey measures interning a navigation into an empty memo and
// computing its canonical key: what dedup pays for a plan none of whose
// subexpressions has been seen.
func BenchmarkInternKey(b *testing.B) {
	ws := sitegen.UniversityScheme()
	nav := nalg.From(ws, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").Unnest("CourseList").Follow("ToCourse").MustBuild()
	inst, _ := InstantiateAliases(nav, "atom")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := nalg.NewMemo(ws)
		_ = m.Key(m.Node(inst))
	}
}
