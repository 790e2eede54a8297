package optimizer

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"ulixes/internal/cost"
	"ulixes/internal/nalg"
	"ulixes/internal/rewrite"
)

const example71 = `SELECT c.CName, c.Description
	FROM Professor p, CourseInstructor ci, Course c
	WHERE p.PName = ci.PName AND ci.CName = c.CName
	  AND c.Session = 'Fall' AND p.Rank = 'Full'`

// renderings renders each plan once with String, so the oracle orders
// plans by a rendering that owes nothing to the memo's.
type renderings map[nalg.Expr]string

func (r renderings) of(e nalg.Expr) string {
	s, ok := r[e]
	if !ok {
		s = e.String()
		r[e] = s
	}
	return s
}

// oracleBeam is the beam as a full sort: the phase's plans in rendering
// order, which is how Expand returned them when it sorted, kept whole when
// there are at most beam of them; otherwise every plan that costs, by a
// stable sort on cost and rendering, cut to beam.
func oracleBeam(plans []nalg.Expr, model *cost.Estimator, beam int, r renderings) []nalg.Expr {
	plans = slices.Clone(plans)
	slices.SortStableFunc(plans, func(a, b nalg.Expr) int { return strings.Compare(r.of(a), r.of(b)) })
	if len(plans) <= beam {
		return plans
	}
	var scored []Plan
	for _, p := range plans {
		if est, err := model.Estimate(p); err == nil {
			scored = append(scored, Plan{Expr: p, Cost: est.Cost})
		}
	}
	out := make([]nalg.Expr, 0, beam)
	for _, p := range oracleCut(scored, beam, r) {
		out = append(out, p.Expr)
	}
	return out
}

// oracleCut orders costed plans by a stable sort on cost and rendering and
// keeps the first beam.
func oracleCut(scored []Plan, beam int, r renderings) []Plan {
	scored = slices.Clone(scored)
	slices.SortStableFunc(scored, func(a, b Plan) int {
		return cmp.Or(cmp.Compare(a.Cost, b.Cost), strings.Compare(r.of(a.Expr), r.of(b.Expr)))
	})
	return scored[:min(len(scored), beam)]
}

// TestBeamMatchesFullSort runs the phases of Examples 7.1 and 7.2 as
// optimize does and checks, on each phase's plan set and on sets cut from
// it, that the beam keeps the plans a full sort by cost and rendering
// keeps, in the same order: with the plans' own costs, with their costs
// collapsed onto three values so that hundreds of plans tie at the cut,
// at exactly beam and beam+1 plans, and with a plan whose estimate fails.
func TestBeamMatchesFullSort(t *testing.T) {
	_, o := univOptimizer(t)
	const beam = DefaultBeamWidth
	for _, ex := range []struct{ name, query string }{{"7.1", example71}, {"7.2", example72}} {
		a := new(arena)
		a.reset(o)
		plans, err := o.translate(mustParse(t, ex.query), a.memo)
		if err != nil {
			t.Fatal(err)
		}
		r := renderings{}
		// An external relation cannot be costed.
		unpriced := a.memo.Node(&nalg.ExtScan{Relation: "Professor"}).Expr()
		if _, err := a.est.Estimate(unpriced); err == nil {
			t.Fatal("an external relation was costed")
		}
		var ties int
		for _, phase := range phases(o.Opts.rules()) {
			a.rw.Rules = phase
			set := a.rw.Expand(plans, rewrite.DefaultMaxPlans)
			sets := map[string][]nalg.Expr{
				"whole":               set,
				"whole and unpriced":  append(slices.Clone(set), unpriced),
				"beam":                set[:min(len(set), beam)],
				"beam+1":              set[:min(len(set), beam+1)],
				"beam-1 and unpriced": append(slices.Clone(set[:min(len(set), beam-1)]), unpriced),
				"beam and unpriced":   append(slices.Clone(set[:min(len(set), beam)]), unpriced),
				"beam+1 and unpriced": append(slices.Clone(set[:min(len(set), beam+1)]), unpriced),
			}
			for what, s := range sets {
				at := fmt.Sprintf("Example %s, phase %v, %s (%d plans)", ex.name, phase, what, len(s))
				got := trimToBeam(slices.Clone(s), a.est, a.memo, beam)
				if want := oracleBeam(s, a.est, beam, r); !slices.Equal(got, want) {
					t.Errorf("%s: the beam keeps %d plans, a full sort %d, or orders them otherwise", at, len(got), len(want))
				}

				var collapsed []Plan
				for _, p := range s {
					if est, err := a.est.Estimate(p); err == nil {
						collapsed = append(collapsed, Plan{Expr: p, Cost: math.Mod(math.Floor(est.Cost), 3)})
					}
				}
				want := oracleCut(collapsed, beam, r)
				if len(want) == beam {
					atCut := 0
					for _, p := range collapsed {
						if p.Cost == want[beam-1].Cost {
							atCut++
						}
					}
					ties = max(ties, atCut)
				}
				if got := cheapest(slices.Clone(collapsed), a.memo, beam); !slices.Equal(got, want) {
					t.Errorf("%s, costs collapsed onto three values: the beam differs from a full sort's", at)
				}
			}
			plans = oracleBeam(set, a.est, beam, r)
		}
		if ties < 2*beam {
			t.Errorf("Example %s: no set had more than %d plans at the cost of its cut", ex.name, ties)
		}
	}
}
