package optimizer

import (
	"testing"

	"ulixes/internal/nalg"
	"ulixes/internal/race"
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
	memo := nalg.NewMemo(o.Views.Scheme)
	res, err := o.optimize(mustParse(t, example72), memo)
	if err != nil {
		t.Fatal(err)
	}
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

// TestColdPlanningAllocBudget holds Example 7.2 to at most 10 % above the
// about 102,000 allocations one Optimize call makes on the plan memo (it
// made 2.69 M before the memo). A change that lowers the count lowers the
// budget with it.
func TestColdPlanningAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	_, o := univOptimizer(t)
	q := mustParse(t, example72)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := o.Optimize(q); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 112_000
	if allocs > budget {
		t.Errorf("Optimize(Example 7.2) made %.0f allocations, budget %d", allocs, budget)
	}
	t.Logf("%.0f allocations (budget %d)", allocs, budget)
}
