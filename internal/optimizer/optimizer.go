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
	"fmt"
	"math"
	"slices"
	"strings"

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

// trimToBeam keeps the `beam` cheapest plans (ties broken by rendering for
// determinism). Plans that fail to cost are dropped.
func trimToBeam(plans []nalg.Expr, model *cost.Estimator, beam int) []nalg.Expr {
	if len(plans) <= beam {
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
	slices.SortStableFunc(scored, ComparePlans)
	if len(scored) > beam {
		scored = scored[:beam]
	}
	trimmed := make([]nalg.Expr, len(scored))
	for i, s := range scored {
		trimmed[i] = s.Expr
	}
	return trimmed
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
	switch {
	case a.Cost < b.Cost:
		return -1
	case a.Cost > b.Cost:
		return 1
	}
	return strings.Compare(a.Expr.String(), b.Expr.String())
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

// expandStar rewrites SELECT * into the explicit attribute list: every
// attribute of every atom, in FROM order, prefixed with the atom alias when
// the bare name would collide.
func (o *Optimizer) expandStar(q *cq.Query) (*cq.Query, error) {
	if !q.Star {
		return q, nil
	}
	counts := make(map[string]int)
	for _, atom := range q.From {
		rel := o.Views.Relation(atom.Relation)
		if rel == nil {
			return nil, fmt.Errorf("optimizer: unknown external relation %q", atom.Relation)
		}
		for _, a := range rel.Attrs {
			counts[a]++
		}
	}
	out := *q
	out.Star = false
	for _, atom := range q.From {
		rel := o.Views.Relation(atom.Relation)
		for _, a := range rel.Attrs {
			col := cq.OutCol{Attr: cq.AttrUse{Atom: atom.EffAlias(), Attr: a}}
			if counts[a] > 1 {
				col.As = atom.EffAlias() + "_" + a
			}
			out.Select = append(out.Select, col)
		}
	}
	return &out, nil
}

// Optimize runs Algorithm 1 on a conjunctive query.
func (o *Optimizer) Optimize(q *cq.Query) (*Result, error) {
	return o.optimize(q, nalg.NewMemo(o.Views.Scheme))
}

// optimize runs Algorithm 1 over one plan memo: translation, every
// rewriting phase, the beam trims and the final costing intern into it and
// read from it, so each distinct subexpression of the search is typed,
// keyed and costed once. The memo dies with the call; the Result's plans
// are plain expression trees.
func (o *Optimizer) optimize(q *cq.Query, memo *nalg.Memo) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	q, err := o.expandStar(q)
	if err != nil {
		return nil, err
	}
	seeds, err := o.translate(q, memo)
	if err != nil {
		return nil, err
	}
	ws := o.Views.Scheme
	rules := o.Opts.rules()
	maxPlans := o.Opts.MaxPlans
	if maxPlans <= 0 {
		maxPlans = rewrite.DefaultMaxPlans
	}

	// Phases 3–7 of Algorithm 1. Each phase expands the plan set under one
	// group of rules; between phases the set is trimmed to the cheapest
	// plans (a beam), since the expansion is otherwise exponential in the
	// number of rule application sites.
	phases := []rewrite.Rule{
		rules & rewrite.Rule4,
		rules & (rewrite.Rule8 | rewrite.Rule9 | rewrite.RulePushJoin),
		rules & rewrite.Rule6,
		rules & rewrite.Rule7,
		rules & (rewrite.Rule3 | rewrite.Rule5),
	}
	model := o.Model().On(memo)
	beam := o.Opts.BeamWidth
	if beam <= 0 {
		beam = DefaultBeamWidth
	}
	plans := seeds
	considered := len(seeds)
	rw := &rewrite.Rewriter{WS: ws, Memo: memo}
	for _, phase := range phases {
		if phase == 0 {
			continue
		}
		rw.Rules = phase
		plans = rw.Expand(plans, maxPlans)
		considered += len(plans)
		plans = trimToBeam(plans, model, beam)
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
	slices.SortStableFunc(cands, ComparePlans)
	return &Result{Best: cands[0], Candidates: cands, PlansConsidered: considered}, nil
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
	cols := make([]string, len(q.Select))
	ren := make(map[string]string, len(q.Select))
	for i, out := range q.Select {
		col, err := colOf(combo, out.Attr)
		if err != nil {
			return nil, err
		}
		cols[i] = col
		if col != out.EffName() {
			if prev, dup := ren[col]; dup && prev != out.EffName() {
				return nil, fmt.Errorf("optimizer: output columns %q and %q project the same source attribute %s", prev, out.EffName(), out.Attr)
			}
			ren[col] = out.EffName()
		}
	}
	var top nalg.Expr = &nalg.Project{In: expr, Cols: dedupCols(cols)}
	if len(ren) > 0 {
		top = &nalg.Rename{In: top, Map: ren}
	}
	return top, nil
}

func dedupCols(cols []string) []string {
	seen := make(map[string]bool, len(cols))
	out := cols[:0]
	for _, c := range cols {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
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
