package optimizer

import (
	"testing"
	"time"
)

// example72 is the paper's hardest query: four atoms, 2×2 default
// navigations.
const example72 = `SELECT p.PName, p.Email
	FROM Course c, CourseInstructor ci, Professor p, ProfDept pd
	WHERE c.CName = ci.CName AND ci.PName = p.PName AND p.PName = pd.PName
	  AND pd.DName = 'Computer Science' AND c.Type = 'Graduate'`

// TestEachSubexpressionInferredOnce: one memo serves translation, all five
// phases, the beam trims and the final costing, so schema inference runs at
// most once per distinct subexpression of the whole search.
func TestEachSubexpressionInferredOnce(t *testing.T) {
	_, o := univOptimizer(t)
	a := new(arena)
	res, err := o.optimize(mustParse(t, example72), a)
	if err != nil {
		t.Fatal(err)
	}
	memo := a.memo
	if memo.Inferred() > memo.Len() {
		t.Errorf("%d schema inferences for %d distinct subexpressions", memo.Inferred(), memo.Len())
	}
	// Interning is what keeps the search small: the plans considered share
	// all but a handful of their operators with one another.
	if perPlan := float64(memo.Len()) / float64(res.PlansConsidered); perPlan > 8 {
		t.Errorf("%d distinct subexpressions for %d plans considered (%.1f per plan)", memo.Len(), res.PlansConsidered, perPlan)
	}
	t.Logf("%d plans considered, %d distinct subexpressions, %d inferences", res.PlansConsidered, memo.Len(), memo.Inferred())
}

// TestPlansRenderedAtTheBeam: a search renders a plan only to break a
// tie in cost, so Example 7.2 renders the plans of its phases small enough
// to keep whole and those at the cost of each beam's cut, not the 7,348 it
// considers. The count depends on the search alone, not on the machine.
func TestPlansRenderedAtTheBeam(t *testing.T) {
	const ceiling = 1280 // 1,166 measured
	_, o := univOptimizer(t)
	a := new(arena)
	res, err := o.optimize(mustParse(t, example72), a)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.memo.Rendered(); got > ceiling {
		t.Errorf("%d of %d plans considered rendered, over %d", got, res.PlansConsidered, ceiling)
	}
}

// BenchmarkSearchAfter times a 2-atom search in an arena whose last search
// was either the same 2-atom one or Example 7.2. Rewinding the arena
// should cost what the next search uses, not what the last one grew, so
// the two should take about as long. Each op is both searches; the 2-atom
// one alone is ns/search.
func BenchmarkSearchAfter(b *testing.B) {
	_, o := univOptimizer(b)
	small := mustParse(b, `SELECT p.PName, p.Email FROM Professor p, ProfDept pd
		WHERE p.PName = pd.PName AND pd.DName = 'Computer Science'`)
	for _, before := range []struct{ name, query string }{{"2atom", ""}, {"example72", example72}} {
		b.Run(before.name, func(b *testing.B) {
			last := small
			if before.query != "" {
				last = mustParse(b, before.query)
			}
			a := new(arena)
			var searching time.Duration
			for i := 0; i < b.N; i++ {
				if _, err := o.optimize(last, a); err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				if _, err := o.optimize(small, a); err != nil {
					b.Fatal(err)
				}
				searching += time.Since(start)
			}
			b.ReportMetric(float64(searching.Nanoseconds())/float64(b.N), "ns/search")
		})
	}
}
