package optimizer

import (
	"strings"
	"testing"
)

// TestDollarConstantIsData: the dedup key normalises alias prefixes, and a
// selection constant is not an alias. A constant that merely looks like one
// ("a$x", with a query atom called a) must not be renamed, nor take part in
// the numbering: the search considers and keeps exactly the plans it does
// for a constant without a "$", the same plans up to that constant, and
// the constant reaches the chosen plan verbatim.
func TestDollarConstantIsData(t *testing.T) {
	_, o := univOptimizer(t)
	const shape = `SELECT a.PName, a.Email FROM Professor a, ProfDept q, CourseInstructor ci
		WHERE a.PName = q.PName AND a.PName = ci.PName AND q.DName = '%'`
	plain, err := o.Optimize(mustParse(t, strings.Replace(shape, "%", "a-x", 1)))
	if err != nil {
		t.Fatal(err)
	}
	dollar, err := o.Optimize(mustParse(t, strings.Replace(shape, "%", "a$x", 1)))
	if err != nil {
		t.Fatal(err)
	}
	if dollar.PlansConsidered != plain.PlansConsidered || len(dollar.Candidates) != len(plain.Candidates) {
		t.Fatalf("'a$x': %d plans considered, %d candidates; 'a-x': %d and %d",
			dollar.PlansConsidered, len(dollar.Candidates), plain.PlansConsidered, len(plain.Candidates))
	}
	for i, c := range dollar.Candidates {
		want := strings.ReplaceAll(plain.Candidates[i].Expr.String(), "'a-x'", "'a$x'")
		if got := c.Expr.String(); got != want || c.Cost != plain.Candidates[i].Cost {
			t.Fatalf("candidate %d:\n got %v %s\nwant %v %s", i, c.Cost, got, plain.Candidates[i].Cost, want)
		}
	}
	if best := dollar.Best.Expr.String(); !strings.Contains(best, "='a$x'") {
		t.Errorf("constant did not survive verbatim: %s", best)
	}
}
