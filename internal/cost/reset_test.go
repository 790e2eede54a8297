package cost_test

import (
	"testing"

	"ulixes/internal/cost"
	"ulixes/internal/cq"
	"ulixes/internal/exp"
	"ulixes/internal/nalg"
	"ulixes/internal/optimizer"
	"ulixes/internal/sitegen"
	"ulixes/internal/stats"
	"ulixes/internal/view"
)

// TestResetEstimatorIsFresh: an estimator that has costed Example 7.2's
// candidates, and has been Reset onto its rewound memo, costs a 2-atom
// query's candidates exactly as a new estimator on a new memo does. The
// second search reaches only some of the estimate chunks the first one
// filled, and each chunk it reaches must hold nothing of the first.
func TestResetEstimatorIsFresh(t *testing.T) {
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	st := stats.CollectInstance(u.Instance)
	opt := optimizer.New(view.UniversityView(u.Scheme), st)
	model := &cost.Model{Scheme: u.Scheme, Stats: st}
	candidates := func(src string) []nalg.Expr {
		q, err := cq.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		var out []nalg.Expr
		for _, c := range res.Candidates {
			out = append(out, c.Expr)
		}
		return out
	}
	first := candidates(exp.Example72Query)
	second := candidates(`SELECT p.PName, p.Email FROM Professor p, ProfDept pd
		WHERE p.PName = pd.PName AND pd.DName = 'Computer Science'`)

	memo := nalg.NewMemo(u.Scheme)
	reused := model.On(memo)
	for _, p := range first {
		if _, err := reused.Estimate(p); err != nil {
			t.Fatal(err)
		}
	}
	firstNodes := memo.Len()
	memo.Reset(u.Scheme)
	reused.Reset(model, memo)
	freshMemo := nalg.NewMemo(u.Scheme)
	fresh := model.On(freshMemo)
	for _, p := range second {
		got, errGot := reused.Estimate(p)
		want, errWant := fresh.Estimate(p)
		if (errGot == nil) != (errWant == nil) || got.Card != want.Card || got.Cost != want.Cost {
			t.Fatalf("%s: after Reset card %v cost %v (%v), a new estimator card %v cost %v (%v)",
				p, got.Card, got.Cost, errGot, want.Card, want.Cost, errWant)
		}
		for _, col := range freshMemo.Schema(p).Names() {
			g, _ := got.Distinct(col)
			w, _ := want.Distinct(col)
			if g != w {
				t.Fatalf("%s: after Reset %s has %v distinct values, for a new estimator %v", p, col, g, w)
			}
		}
	}
	if memo.Len() >= firstNodes {
		t.Fatalf("the 2-atom candidates intern %d nodes, Example 7.2's %d: the second search must reach fewer chunks", memo.Len(), firstNodes)
	}
	t.Logf("Example 7.2's candidates: %d nodes; the 2-atom query's: %d", firstNodes, memo.Len())
}
