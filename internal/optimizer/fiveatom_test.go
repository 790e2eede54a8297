package optimizer

import (
	"testing"
	"time"
)

// TestFiveAtomQuery exercises the widest query the university view admits:
// all five external relations joined, with selections. Beyond three atoms
// translation tries one atom order per ordered pair rather than every
// permutation; the optimizer must stay within its bounds and produce a
// computable plan in reasonable time.
func TestFiveAtomQuery(t *testing.T) {
	_, o := univOptimizer(t)
	q := mustParse(t, `SELECT p.PName, d.Address, c.CName
		FROM Professor p, ProfDept pd, Dept d, CourseInstructor ci, Course c
		WHERE p.PName = pd.PName AND pd.DName = d.DName
		  AND p.PName = ci.PName AND ci.CName = c.CName
		  AND c.Type = 'Graduate' AND d.DName = 'Computer Science'`)
	start := time.Now()
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Errorf("optimization took %v", elapsed)
	}
	if res.Best.Cost <= 0 {
		t.Errorf("cost = %v", res.Best.Cost)
	}
	// The plan must beat the naive full-navigation bound: downloading all
	// professors AND all courses AND all departments (≈ 77 pages).
	if res.Best.Cost >= 77 {
		t.Errorf("five-atom plan cost %v did not improve on naive navigation", res.Best.Cost)
	}
	t.Logf("five-atom query: cost %.1f, %d candidates, %v", res.Best.Cost, len(res.Candidates), elapsed)
}
