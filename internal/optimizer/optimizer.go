// Package optimizer implements Algorithm 1 of §6.3 of the paper: it
// translates a conjunctive query over the external view into a computable
// navigational-algebra expression, derives candidate execution plans with
// the rewriting rules, estimates each plan's network cost, and selects the
// cheapest.
//
// Phases (following the paper):
//
//  1. translate the query into a relational algebra expression over
//     external relations;
//  2. replace each external relation with its default navigations in all
//     possible ways (Rule 1);
//  3. eliminate repeated navigations (Rule 4);
//  4. push and prune joins (Rules 8 and 9);
//  5. push selections (Rule 6);
//  6. push projections (Rule 7);
//  7. eliminate unnecessary navigations (Rules 3 and 5);
//  8. cost every derived plan and pick the minimum.
package optimizer

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"ulixes/internal/cost"
	"ulixes/internal/cq"
	"ulixes/internal/nalg"
	"ulixes/internal/nested"
	"ulixes/internal/rewrite"
	"ulixes/internal/stats"
	"ulixes/internal/view"
)

// Options tunes the optimizer.
type Options struct {
	// Rules is the enabled rewriting-rule set; zero means rewrite.AllRules.
	// To run with only some rules off, leave it zero and set DisableRules.
	Rules rewrite.Rule
	// DisableRules removes rules from the default set (for ablations).
	DisableRules rewrite.Rule
	// MaxPlans bounds each expansion phase.
	MaxPlans int
	// BeamWidth bounds the plan set carried between phases (cheapest
	// first); DefaultBeamWidth when zero.
	BeamWidth int
	// Unit selects the cost unit: page downloads (default, the paper's
	// model) or HTML bytes (§6.2's footnote refinement).
	Unit cost.Unit
}

// DefaultBeamWidth is the number of cheapest plans carried from one
// rewriting phase to the next.
const DefaultBeamWidth = 256

// trimToBeam orders one phase's plans for the next and keeps the beam
// cheapest. A phase of at most beam plans is kept whole, plans that fail
// to cost included, in rendering order: that is where the next phase's
// breadth-first expansion, and its MaxPlans cut, start from. A larger one
// is estimated, plans that fail to cost are dropped, and cheapest keeps
// the beam of the rest.
func trimToBeam(plans []nalg.Expr, model *cost.Estimator, memo *nalg.Memo, beam int) []nalg.Expr {
	if len(plans) <= beam {
		slices.SortFunc(plans, func(a, b nalg.Expr) int {
			return bytes.Compare(memo.Text(memo.Node(a)), memo.Text(memo.Node(b)))
		})
		return plans
	}
	scored := make([]Plan, 0, len(plans))
	for _, p := range plans {
		est, err := model.Estimate(p)
		if err != nil {
			continue
		}
		scored = append(scored, Plan{Expr: p, Cost: est.Cost})
	}
	scored = cheapest(scored, memo, beam)
	trimmed := make([]nalg.Expr, len(scored))
	for i, s := range scored {
		trimmed[i] = s.Expr
	}
	return trimmed
}

// cheapest orders costed plans interned in memo by cost, plans of equal
// cost by rendering, and keeps the first beam. Only the plans that cost
// at most what the plan at the cut does are rendered: the plans are first
// ordered by cost alone, and the ones past the cut's cost dropped. No two
// plans a phase keeps render alike (Expand keeps one per canonical key),
// so the order is total, and the beam is the one a full sort by cost and
// rendering would keep.
func cheapest(scored []Plan, memo *nalg.Memo, beam int) []Plan {
	if len(scored) > beam {
		slices.SortFunc(scored, compareCosts)
		n := beam
		for n < len(scored) && scored[n].Cost == scored[beam-1].Cost {
			n++
		}
		scored = scored[:n]
	}
	slices.SortFunc(scored, planOrder(memo))
	return scored[:min(len(scored), beam)]
}

func (o Options) rules() rewrite.Rule {
	r := o.Rules
	if r == 0 {
		r = rewrite.AllRules
	}
	return r &^ o.DisableRules
}

// Plan is one costed candidate execution plan.
type Plan struct {
	Expr nalg.Expr
	// Cost is the estimated number of network accesses C(E).
	Cost float64
	// Card is the estimated output cardinality.
	Card float64
}

// ComparePlans is the order of Result.Candidates: cheapest first, plans of
// equal cost by their rendering.
func ComparePlans(a, b Plan) int {
	if c := compareCosts(a, b); c != 0 {
		return c
	}
	return strings.Compare(a.Expr.String(), b.Expr.String())
}

// planOrder is ComparePlans for plans interned in memo: a tie compares the
// memo's renderings (Memo.Text), which cost no allocation.
func planOrder(memo *nalg.Memo) func(a, b Plan) int {
	return func(a, b Plan) int {
		if c := compareCosts(a, b); c != 0 {
			return c
		}
		return bytes.Compare(memo.Text(memo.Node(a.Expr)), memo.Text(memo.Node(b.Expr)))
	}
}

func compareCosts(a, b Plan) int {
	switch {
	case a.Cost < b.Cost:
		return -1
	case a.Cost > b.Cost:
		return 1
	}
	return 0
}

// Result is the outcome of optimization: the chosen plan and every
// candidate considered, cheapest first.
type Result struct {
	Best       Plan
	Candidates []Plan
	// PlansConsidered counts candidates surviving each phase's validation.
	PlansConsidered int
}

// Optimizer selects navigation plans for conjunctive queries.
type Optimizer struct {
	Views *view.Registry
	Stats *stats.Stats
	Opts  Options
}

// New creates an optimizer over a view registry and site statistics.
func New(views *view.Registry, st *stats.Stats) *Optimizer {
	return &Optimizer{Views: views, Stats: st}
}

// Model returns a cost model over the optimizer's scheme and statistics,
// for estimating explicitly constructed plans.
func (o *Optimizer) Model() *cost.Model {
	return &cost.Model{Scheme: o.Views.Scheme, Stats: o.Stats, Unit: o.Opts.Unit}
}

// Optimize runs Algorithm 1 on a conjunctive query.
func (o *Optimizer) Optimize(q *cq.Query) (*Result, error) {
	a := arenas.Get().(*arena)
	defer arenas.Put(a)
	return o.optimize(q, a)
}

// arena is what one run of Algorithm 1 keeps its bookkeeping in: the plan
// memo, the cost model bound to it and the rewriter that interns into it.
// A run takes an arena from the pool and rewinds it, so the slabs, tables
// and variant lists the last run grew are handed out again instead of
// being allocated anew and left to the garbage collector.
type arena struct {
	memo *nalg.Memo
	est  *cost.Estimator
	rw   rewrite.Rewriter
}

var arenas = sync.Pool{New: func() any { return new(arena) }}

// reset rewinds the arena for a run of o.
func (a *arena) reset(o *Optimizer) {
	ws := o.Views.Scheme
	if a.memo == nil {
		a.memo = nalg.NewMemo(ws)
		a.est = o.Model().On(a.memo)
	} else {
		a.memo.Reset(ws)
		a.est.Reset(o.Model(), a.memo)
	}
	a.rw.Reset(ws, a.memo)
}

// optimize runs Algorithm 1 in an arena: translation, every rewriting
// phase, the beam trims and the final costing intern into its memo and
// read from it, so each distinct subexpression of the search is typed,
// keyed and costed once. What the arena holds is rewound by the next run
// that takes it, so the Result's plans are copied out of it (Memo.Detach)
// as plain expression trees on the heap.
func (o *Optimizer) optimize(q *cq.Query, a *arena) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	q, err := o.Views.ExpandStar(q)
	if err != nil {
		return nil, err
	}
	a.reset(o)
	memo := a.memo
	seeds, err := o.translate(q, memo)
	if err != nil {
		return nil, err
	}
	rules := o.Opts.rules()
	maxPlans := o.Opts.MaxPlans
	if maxPlans <= 0 {
		maxPlans = rewrite.DefaultMaxPlans
	}

	// Phases 3–7 of Algorithm 1. Each phase expands the plan set under one
	// group of rules; between phases the set is trimmed to the cheapest
	// plans (a beam), since the expansion is otherwise exponential in the
	// number of rule application sites.
	model := a.est
	beam := o.Opts.BeamWidth
	if beam <= 0 {
		beam = DefaultBeamWidth
	}
	plans := seeds
	considered := len(seeds)
	rw := &a.rw
	for _, phase := range phases(rules) {
		rw.Rules = phase
		plans = rw.Expand(plans, maxPlans)
		considered += len(plans)
		plans = trimToBeam(plans, model, memo, beam)
	}
	var cands []Plan
	for _, p := range plans {
		if !nalg.Computable(p) {
			continue
		}
		est, err := model.Estimate(p)
		if err != nil {
			continue
		}
		cands = append(cands, Plan{Expr: p, Cost: est.Cost, Card: est.Card})
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("optimizer: no computable plan for query %s", q)
	}
	slices.SortStableFunc(cands, planOrder(memo))
	// The plans live in the arena, which the next run rewinds: the result
	// gets heap copies.
	for i := range cands {
		cands[i].Expr = memo.Detach(cands[i].Expr)
	}
	return &Result{Best: cands[0], Candidates: cands, PlansConsidered: considered}, nil
}

// phases returns the rule groups of phases 3–7 of Algorithm 1, in order,
// leaving out the groups the enabled rules make empty.
func phases(rules rewrite.Rule) []rewrite.Rule {
	var out []rewrite.Rule
	for _, phase := range []rewrite.Rule{
		rewrite.Rule4,
		rewrite.Rule8 | rewrite.Rule9 | rewrite.RulePushJoin,
		rewrite.Rule6,
		rewrite.Rule7,
		rewrite.Rule3 | rewrite.Rule5,
	} {
		if phase&rules != 0 {
			out = append(out, phase&rules)
		}
	}
	return out
}

// instNav is a default navigation instantiated for one query atom.
type instNav struct {
	expr   nalg.Expr
	colMap map[string]string // external attr -> instantiated column
}

// translate performs phases 1–2: it builds, for every combination of
// default navigations of the query's atoms, the expression
//
//	ρ_out(π_out(σ_consts(nav_1 ⋈ … ⋈ nav_k)))
//
// with all aliases instantiated per atom so repeated relations don't
// collide. Constant selections are emitted as separate σ nodes so Rule 6
// can push each independently. The seeds are interned in the memo, which
// type-checks them and keeps one per canonical key.
func (o *Optimizer) translate(q *cq.Query, memo *nalg.Memo) ([]nalg.Expr, error) {
	perAtom := make([][]instNav, len(q.From))
	for i, atom := range q.From {
		rel := o.Views.Relation(atom.Relation)
		if rel == nil {
			return nil, fmt.Errorf("optimizer: unknown external relation %q", atom.Relation)
		}
		for _, nav := range rel.Navs {
			inst, aliasMap := rewrite.InstantiateAliases(nav.Expr, atom.EffAlias())
			cm := make(map[string]string, len(nav.ColMap))
			for attr, col := range nav.ColMap {
				cm[attr] = realiasColName(col, aliasMap)
			}
			perAtom[i] = append(perAtom[i], instNav{expr: inst, colMap: cm})
		}
	}
	// Cartesian product over navigation choices.
	var combos [][]instNav
	var rec func(i int, cur []instNav)
	rec = func(i int, cur []instNav) {
		if i == len(perAtom) {
			combos = append(combos, append([]instNav(nil), cur...))
			return
		}
		for _, nav := range perAtom[i] {
			rec(i+1, append(cur, nav))
		}
	}
	rec(0, nil)

	aliasIdx := make(map[string]int, len(q.From))
	for i, a := range q.From {
		aliasIdx[a.EffAlias()] = i
	}
	colOf := func(combo []instNav, u cq.AttrUse) (string, error) {
		i, ok := aliasIdx[u.Atom]
		if !ok {
			return "", fmt.Errorf("optimizer: unknown alias %q", u.Atom)
		}
		col, ok := combo[i].colMap[u.Attr]
		if !ok {
			return "", fmt.Errorf("optimizer: relation %q has no attribute %q", q.From[i].Relation, u.Attr)
		}
		return col, nil
	}

	// Which plans the rules can derive depends on which atoms sit adjacent
	// in the left-deep join tree (the paper rewrites "in all possible
	// ways"), so enumerate atom orders up to a modest arity and fall back
	// to the written order beyond it.
	orders := permutations(len(q.From), 3)

	var seeds []nalg.Expr
	seen := make(map[int32]bool)
	for _, combo := range combos {
		for _, order := range orders {
			expr := combo[order[0]].expr
			placed := map[int]bool{order[0]: true}
			for _, idx := range order[1:] {
				// Attach the join conditions connecting atom idx to the
				// atoms already placed.
				var conds []nested.EqCond
				for _, j := range q.Joins {
					li, lok := aliasIdx[j.Left.Atom]
					ri, rok := aliasIdx[j.Right.Atom]
					if !lok || !rok {
						return nil, fmt.Errorf("optimizer: join references unknown alias")
					}
					var earlier, current cq.AttrUse
					switch {
					case placed[li] && ri == idx:
						earlier, current = j.Left, j.Right
					case placed[ri] && li == idx:
						earlier, current = j.Right, j.Left
					default:
						continue
					}
					lc, err := colOf(combo, earlier)
					if err != nil {
						return nil, err
					}
					rc, err := colOf(combo, current)
					if err != nil {
						return nil, err
					}
					conds = append(conds, nested.EqCond{Left: lc, Right: rc})
				}
				expr = &nalg.Join{L: expr, R: combo[idx].expr, Conds: conds}
				placed[idx] = true
			}
			top, err := o.finish(q, combo, expr, aliasIdx, colOf)
			if err != nil {
				return nil, err
			}
			n := memo.Node(top)
			if _, err := memo.SchemaOf(n); err != nil {
				return nil, fmt.Errorf("optimizer: translated plan does not type-check: %v", err)
			}
			if k := memo.Key(n); !seen[k] {
				seen[k] = true
				seeds = append(seeds, n.Expr())
			}
		}
	}
	return seeds, nil
}

// permutations returns the atom orders to try: all n! permutations up to
// maxArity atoms, and a reduced deterministic family beyond it (one order
// per ordered pair of atoms — n(n−1) orders), since the factorial set
// becomes prohibitive while adjacency variety is what the rewrite rules
// actually need.
func permutations(n, maxArity int) [][]int {
	ident := make([]int, n)
	for i := range ident {
		ident[i] = i
	}
	if n <= 1 {
		return [][]int{ident}
	}
	if n > maxArity {
		// Pair-first family: one order per ordered atom pair, placing the
		// pair at the bottom of the left-deep tree (where Rules 4 and 9
		// fire on chain operands) and the rest in written order — n(n−1)
		// orders instead of n!.
		var out [][]int
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				ord := []int{i, j}
				for k := 0; k < n; k++ {
					if k != i && k != j {
						ord = append(ord, k)
					}
				}
				out = append(out, ord)
			}
		}
		return out
	}
	var out [][]int
	var rec func(cur, rest []int)
	rec = func(cur, rest []int) {
		if len(rest) == 0 {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := range rest {
			next := make([]int, 0, len(rest)-1)
			next = append(next, rest[:i]...)
			next = append(next, rest[i+1:]...)
			rec(append(cur, rest[i]), next)
		}
	}
	rec(nil, ident)
	return out
}

// finish stacks the intra-atom checks, constant selections, final
// projection and output renaming on top of a join tree.
func (o *Optimizer) finish(q *cq.Query, combo []instNav, expr nalg.Expr, aliasIdx map[string]int, colOf func([]instNav, cq.AttrUse) (string, error)) (nalg.Expr, error) {
	// Joins whose both sides live on the same atom become selections.
	for _, j := range q.Joins {
		li, ri := aliasIdx[j.Left.Atom], aliasIdx[j.Right.Atom]
		if li != ri {
			continue
		}
		lc, err := colOf(combo, j.Left)
		if err != nil {
			return nil, err
		}
		rc, err := colOf(combo, j.Right)
		if err != nil {
			return nil, err
		}
		expr = &nalg.Select{In: expr, Pred: nested.AttrPred{Left: lc, Op: nested.OpEq, Right: rc}}
	}
	for _, c := range q.Consts {
		col, err := colOf(combo, c.Attr)
		if err != nil {
			return nil, err
		}
		expr = &nalg.Select{In: expr, Pred: nested.Eq(col, c.Val)}
	}
	cols, ren, err := cq.Output(q.Select, func(u cq.AttrUse) (string, error) { return colOf(combo, u) })
	if err != nil {
		return nil, err
	}
	var top nalg.Expr = &nalg.Project{In: expr, Cols: cols}
	if len(ren) > 0 {
		top = &nalg.Rename{In: top, Map: ren}
	}
	return top, nil
}

func realiasColName(col string, aliasMap map[string]string) string {
	for old, nn := range aliasMap {
		prefix := old + "."
		if len(col) > len(prefix) && col[:len(prefix)] == prefix {
			return nn + "." + col[len(prefix):]
		}
	}
	return col
}

// MeasuredVsEstimated compares an estimate with a measurement, for the
// cost-model-accuracy experiments.
func MeasuredVsEstimated(estimated float64, measured int) float64 {
	if measured == 0 {
		return math.Inf(1)
	}
	return estimated / float64(measured)
}
