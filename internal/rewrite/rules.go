package rewrite

import (
	"ulixes/internal/adm"
	"ulixes/internal/nalg"
	"ulixes/internal/nested"
)

// Rule identifies one of the paper's rewriting rules (plus the standard
// commutations the paper folds into selection/projection pushing).
type Rule uint

// The rule inventory. Rule 1 (default navigation) is applied by the
// optimizer during query translation; Rule 2 (link-constraint join as
// navigation) is subsumed by Rules 8/9 in computable plans.
const (
	// Rule3 removes an unnest under a projection that uses none of the
	// promoted columns: π_X(R ◦ A) = π_X(R).
	Rule3 Rule = 1 << iota
	// Rule4 eliminates repeated navigations: a join of two navigations
	// where one is a prefix of the other collapses to the longer one.
	Rule4
	// Rule5 removes an unreferenced navigation under a projection when the
	// link is non-optional: π_X(R1 →L R2) = π_X(R1) with X ⊆ attrs(R1).
	Rule5
	// Rule6 pushes selections down, including through navigations using
	// link constraints: σ_{B=v}(R1 →L R2) = σ_{A=v}(R1) →L R2.
	Rule6
	// Rule7 rewrites projected target attributes to their link-constraint
	// sources: π_B(R1 →L R2) = ρ(π_A(R1 →L R2)), enabling Rule 5.
	Rule7
	// Rule8 is the pointer-join rewrite:
	// (R1 →L R3) ⋈_{R3.B=R2.A} R2 = (R1 ⋈_{R1.L=R2.L'} R2) →L R3.
	Rule8
	// Rule9 is the pointer-chase rewrite:
	// π_X((R1 →L R3) ⋈_{R3.B=R2.A} R2) = π_X(R2 →L' R3), valid when
	// R2.L' ⊆ R1.L and R1 is a covering navigation.
	Rule9
	// RulePushJoin commutes a join below a navigation operator of one of
	// its sides when the conditions do not touch that operator's output:
	// (R ◦ A) ⋈ S = (R ⋈ S) ◦ A and (R →L P) ⋈ S = (R ⋈ S) →L P.
	// The paper folds these standard commutations into its "push joins"
	// phase; they expose the patterns Rules 8 and 9 fire on.
	RulePushJoin
)

// AllRules enables every rewriting rule.
const AllRules = Rule3 | Rule4 | Rule5 | Rule6 | Rule7 | Rule8 | Rule9 | RulePushJoin

// Has reports whether the set contains the rule.
func (r Rule) Has(x Rule) bool { return r&x != 0 }

// result is one outcome of firing a rule at a node: the replacement
// subtree, plus a column substitution the enclosing operators must apply
// (non-empty when the rewrite renames or removes column producers).
type result struct {
	e      nalg.Expr
	colmap map[string]string
	rule   Rule
	// pre is the scheme precondition the rule relied on; nil for purely
	// structural rewrites. Every result is re-validated against it before
	// being emitted (see validated in precond.go).
	pre *Precondition
}

// Rewriter applies the rule set against a web scheme.
type Rewriter struct {
	WS    *adm.Scheme
	Rules Rule
	// RecordAudit enables the application audit trail returned by Audit.
	RecordAudit bool
	// Memo is the plan memo the rewriter interns expressions in and reads
	// their schemas from. Algorithm 1 hands every phase's rewriter, and the
	// cost model, the same one; left nil, the rewriter makes its own on
	// first use. It must not change once the rewriter has been used.
	Memo *nalg.Memo

	// variantsOf caches variants by node ID, for the rule set variantRules;
	// nil is "not computed". The lists are cut from one slab.
	variantsOf   [][]variant
	variantRules Rule
	lists        nalg.Slab[variant]
	// covering caches coveringChain by node.
	covering map[*nalg.Node]bool
	// pointers is matchPointer's result at the join pointersAt.
	pointersAt nalg.Expr
	pointers   []pointerPattern
	// audit is the recorded rule applications (RecordAudit only).
	audit []Application
}

// schema is InferSchema through the memo, tolerating failure (rules simply
// don't fire): nil when e does not type-check.
func (rw *Rewriter) schema(e nalg.Expr) *nalg.Schema { return rw.memo().Schema(e) }

// ruleResults returns every rewrite the enabled rules produce at this node.
func (rw *Rewriter) ruleResults(e nalg.Expr) []result {
	var out []result
	if rw.Rules.Has(Rule3) {
		out = append(out, rw.rule3(e)...)
	}
	if rw.Rules.Has(Rule4) {
		out = append(out, rw.rule4(e)...)
	}
	if rw.Rules.Has(Rule5) {
		out = append(out, rw.rule5(e)...)
	}
	if rw.Rules.Has(Rule6) {
		out = append(out, rw.rule6(e)...)
	}
	if rw.Rules.Has(Rule7) {
		out = append(out, rw.rule7(e)...)
	}
	if rw.Rules.Has(Rule8) {
		out = append(out, rw.rule8(e)...)
	}
	if rw.Rules.Has(Rule9) {
		out = append(out, rw.rule9(e)...)
	}
	if rw.Rules.Has(RulePushJoin) {
		out = append(out, rw.pushJoin(e)...)
	}
	return rw.validated(e, out)
}

// pushJoin commutes a join below an Unnest or Follow on either side, when
// no join condition references what the operator produces (the promoted
// list fields, or the followed page's columns). Tuples dropped by the
// navigation (null links, empty lists) are dropped on both sides of the
// equation, so the commutation is exact.
func (rw *Rewriter) pushJoin(e nalg.Expr) []result {
	j, ok := e.(*nalg.Join)
	if !ok {
		return nil
	}
	var out []result
	condCols := make([]string, 0, len(j.Conds)*2)
	for _, c := range j.Conds {
		condCols = append(condCols, c.Left, c.Right)
	}
	referencesAny := func(produced func(string) bool) bool {
		for _, col := range condCols {
			if produced(col) {
				return true
			}
		}
		return false
	}
	push := func(side nalg.Expr, left bool) {
		switch x := side.(type) {
		case *nalg.Unnest:
			promoted := func(col string) bool {
				return len(col) > len(x.Attr) && col[:len(x.Attr)+1] == x.Attr+"."
			}
			if referencesAny(promoted) {
				return
			}
			var inner *nalg.Join
			if left {
				inner = &nalg.Join{L: x.In, R: j.R, Conds: j.Conds}
			} else {
				inner = &nalg.Join{L: j.L, R: x.In, Conds: j.Conds}
			}
			out = append(out, result{e: &nalg.Unnest{In: inner, Attr: x.Attr}, rule: RulePushJoin})
		case *nalg.Follow:
			alias := x.EffAlias()
			produced := func(col string) bool {
				a, _, ok := splitCol(col)
				return ok && a == alias
			}
			if referencesAny(produced) {
				return
			}
			var inner *nalg.Join
			if left {
				inner = &nalg.Join{L: x.In, R: j.R, Conds: j.Conds}
			} else {
				inner = &nalg.Join{L: j.L, R: x.In, Conds: j.Conds}
			}
			out = append(out, result{e: &nalg.Follow{In: inner, Link: x.Link, Target: x.Target, Alias: x.Alias}, rule: RulePushJoin})
		}
	}
	push(j.L, true)
	push(j.R, false)
	return out
}

// rule3: π_X(R ◦ A) = π_X(R) when no projected column is promoted by the
// unnest.
func (rw *Rewriter) rule3(e nalg.Expr) []result {
	p, ok := e.(*nalg.Project)
	if !ok {
		return nil
	}
	u, ok := p.In.(*nalg.Unnest)
	if !ok {
		return nil
	}
	inner := rw.schema(u.In)
	if inner == nil {
		return nil
	}
	for _, c := range p.Cols {
		if !inner.Has(c) {
			return nil // column produced by the unnest
		}
	}
	return []result{{e: &nalg.Project{In: u.In, Cols: p.Cols}, rule: Rule3}}
}

// rule4: Join(E1, E2, conds) where one side's navigation chain is a prefix
// of the other's and every condition equates corresponding columns of the
// shared prefix collapses to the longer chain. The merged side's columns
// are substituted throughout the enclosing expression.
//
// Soundness note: the paper states R ⋈_Y R = R for any non-nested Y; under
// set semantics this requires Y to determine the navigation tuple, which
// holds for the key-like attributes (names, URLs, anchors) the default
// navigations join on. The correspondence check below enforces that both
// sides reference the *same* attribute of the shared navigation.
func (rw *Rewriter) rule4(e nalg.Expr) []result {
	j, ok := e.(*nalg.Join)
	if !ok || len(j.Conds) == 0 {
		return nil
	}
	ls, ok1 := chainOf(j.L)
	rs, ok2 := chainOf(j.R)
	if !ok1 || !ok2 {
		return nil
	}
	try := func(long nalg.Expr, longSteps []step, short nalg.Expr, shortSteps []step, shortIsRight bool) []result {
		aliasMap, ok := prefixMatch(longSteps, shortSteps)
		if !ok {
			return nil
		}
		shortSch := rw.schema(short)
		longSch := rw.schema(long)
		if shortSch == nil || longSch == nil {
			return nil
		}
		colmap := aliasColMap(shortSch, aliasMap)
		// Every condition must equate a shared-prefix column with its
		// mapped counterpart.
		for _, c := range j.Conds {
			l, r := c.Left, c.Right
			if shortIsRight {
				// left col belongs to long, right col to short
				if realiasCol(r, aliasMap) != l {
					return nil
				}
			} else {
				if realiasCol(l, aliasMap) != r {
					return nil
				}
			}
		}
		return []result{{e: long, colmap: colmap, rule: Rule4}}
	}
	if res := try(j.L, ls, j.R, rs, true); res != nil {
		return res
	}
	return try(j.R, rs, j.L, ls, false)
}

// rule5: π_X(R1 →L R2) = π_X(R1) when no projected column comes from the
// followed page and the link is non-optional (every tuple of R1 navigates
// somewhere, so dropping the navigation loses nothing).
func (rw *Rewriter) rule5(e nalg.Expr) []result {
	p, ok := e.(*nalg.Project)
	if !ok {
		return nil
	}
	f, ok := p.In.(*nalg.Follow)
	if !ok {
		return nil
	}
	inner := rw.schema(f.In)
	if inner == nil {
		return nil
	}
	link, ok := inner.Col(f.Link)
	if !ok || link.Optional {
		return nil
	}
	for _, c := range p.Cols {
		if !inner.Has(c) {
			return nil
		}
	}
	linkRef := link.Ref()
	return []result{{
		e:    &nalg.Project{In: f.In, Cols: p.Cols},
		rule: Rule5,
		pre:  &Precondition{Rule: Rule5, NonOptionalLink: &linkRef},
	}}
}

// rule6 pushes selections down: through projections, joins, unnests and
// navigations (plain commutation when the predicate's columns exist below;
// link-constraint translation σ_{B=v}(R1 →L R2) = σ_{A=v}(R1) →L R2 when
// they do not).
func (rw *Rewriter) rule6(e nalg.Expr) []result {
	s, ok := e.(*nalg.Select)
	if !ok {
		return nil
	}
	var out []result
	attrs := s.Pred.Attrs(nil)
	switch in := s.In.(type) {
	case *nalg.Select:
		// Commute two selections (lets a pushable one reach its operator).
		out = append(out, result{
			e:    &nalg.Select{In: &nalg.Select{In: in.In, Pred: s.Pred}, Pred: in.Pred},
			rule: Rule6,
		})
	case *nalg.Project:
		if inner := rw.schema(in.In); inner != nil && hasAll(inner, attrs) {
			out = append(out, result{
				e:    &nalg.Project{In: &nalg.Select{In: in.In, Pred: s.Pred}, Cols: in.Cols},
				rule: Rule6,
			})
		}
	case *nalg.Unnest:
		if inner := rw.schema(in.In); inner != nil && hasAll(inner, attrs) {
			out = append(out, result{
				e:    &nalg.Unnest{In: &nalg.Select{In: in.In, Pred: s.Pred}, Attr: in.Attr},
				rule: Rule6,
			})
		}
	case *nalg.Join:
		if ls := rw.schema(in.L); ls != nil && hasAll(ls, attrs) {
			out = append(out, result{
				e:    &nalg.Join{L: &nalg.Select{In: in.L, Pred: s.Pred}, R: in.R, Conds: in.Conds},
				rule: Rule6,
			})
		}
		if rs := rw.schema(in.R); rs != nil && hasAll(rs, attrs) {
			out = append(out, result{
				e:    &nalg.Join{L: in.L, R: &nalg.Select{In: in.R, Pred: s.Pred}, Conds: in.Conds},
				rule: Rule6,
			})
		}
	case *nalg.Follow:
		if inner := rw.schema(in.In); inner != nil {
			if hasAll(inner, attrs) {
				// Plain commutation: the predicate doesn't need the page.
				out = append(out, result{
					e:    &nalg.Follow{In: &nalg.Select{In: in.In, Pred: s.Pred}, Link: in.Link, Target: in.Target, Alias: in.Alias},
					rule: Rule6,
				})
			} else if cp, ok := s.Pred.(nested.ConstPred); ok && cp.Op == nested.OpEq {
				// Link-constraint translation (Rule 6 proper).
				if srcCol, lc, ok := rw.constraintSource(in, cp.Attr); ok {
					out = append(out, result{
						e: &nalg.Follow{
							In:     &nalg.Select{In: in.In, Pred: nested.ConstPred{Attr: srcCol, Op: nested.OpEq, Val: cp.Val}},
							Link:   in.Link,
							Target: in.Target,
							Alias:  in.Alias,
						},
						rule: Rule6,
						pre:  &Precondition{Rule: Rule6, Constraint: &lc},
					})
				}
			}
		}
	}
	return out
}

// constraintSource resolves a selection on a followed page's attribute
// (column "alias.B") to the equivalent source column before the follow,
// using the link constraint attached to the followed link. It returns the
// source column name in the follow's input schema along with the constraint
// relied on, which the caller records as the rewrite's precondition.
func (rw *Rewriter) constraintSource(f *nalg.Follow, col string) (string, adm.LinkConstraint, bool) {
	alias, rel, ok := splitCol(col)
	if !ok || alias != f.EffAlias() {
		return "", adm.LinkConstraint{}, false
	}
	inner := rw.schema(f.In)
	if inner == nil {
		return "", adm.LinkConstraint{}, false
	}
	linkCol, ok := inner.Col(f.Link)
	if !ok {
		return "", adm.LinkConstraint{}, false
	}
	c, ok := rw.WS.LinkConstraintFor(linkCol.Ref())
	if !ok || c.TgtAttr != rel {
		return "", adm.LinkConstraint{}, false
	}
	// The source attribute's column is the link owner's alias + SrcAttr.
	srcCol := linkCol.Alias + "." + c.SrcAttr.String()
	if !inner.Has(srcCol) {
		return "", adm.LinkConstraint{}, false
	}
	return srcCol, c, true
}

// rule7: π_{...,B,...}(R1 →L R2) where B is a target attribute with link
// constraint A = B rewrites the projected column to the source A, renaming
// the output back to B's name. With all target columns rewritten, Rule 5
// can then drop the navigation.
func (rw *Rewriter) rule7(e nalg.Expr) []result {
	p, ok := e.(*nalg.Project)
	if !ok {
		return nil
	}
	f, ok := p.In.(*nalg.Follow)
	if !ok {
		return nil
	}
	var out []result
	for i, col := range p.Cols {
		srcCol, lc, ok := rw.constraintSource(f, col)
		if !ok || srcCol == col {
			continue
		}
		cols := append([]string(nil), p.Cols...)
		cols[i] = srcCol
		if containsDup(cols) {
			continue
		}
		out = append(out, result{
			e: &nalg.Rename{
				In:  &nalg.Project{In: f, Cols: cols},
				Map: map[string]string{srcCol: col},
			},
			rule: Rule7,
			pre:  &Precondition{Rule: Rule7, Constraint: &lc},
		})
	}
	return out
}

func containsDup(cols []string) bool {
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if seen[c] {
			return true
		}
		seen[c] = true
	}
	return false
}

func hasAll(s *nalg.Schema, attrs []string) bool {
	for _, a := range attrs {
		if !s.Has(a) {
			return false
		}
	}
	return true
}

// pointerPattern captures the shared shape of Rules 8 and 9: a join whose
// one side is a navigation R1 →L R3 and whose conditions compare columns of
// the followed page R3 with columns of the other side R2 that carry (via a
// link constraint or directly via the URL) pointers L' to R3.
type pointerPattern struct {
	j *nalg.Join
	// f is the Follow side (R1 →L R3); other is R2.
	f     *nalg.Follow
	other nalg.Expr
	// followLeft reports whether f is the join's left operand.
	followLeft bool
	// l1Col is R1's link column; l2Col is R2's pointer column to R3.
	l1Col, l2Col nalg.Col
	// lc is the link constraint that matched the pointer column, when the
	// anchor form applied (nil for a direct URL comparison).
	lc *adm.LinkConstraint
	// otherConds are the conditions not consumed by the rewrite.
	otherConds []nested.EqCond
}

// matchPointer recognizes the Rule 8/9 pattern at a join node. Every
// condition referencing the followed page must resolve to the same pointer
// column of the other side.
func (rw *Rewriter) matchPointer(e nalg.Expr) []pointerPattern {
	j, ok := e.(*nalg.Join)
	if !ok || len(j.Conds) == 0 {
		return nil
	}
	// Rules 8 and 9 match the same join one after the other.
	if rw.pointersAt == e {
		return rw.pointers
	}
	var out []pointerPattern
	try := func(f *nalg.Follow, other nalg.Expr, followLeft bool) {
		fSch := rw.schema(f)
		oSch := rw.schema(other)
		if fSch == nil || oSch == nil {
			return
		}
		inner := rw.schema(f.In)
		if inner == nil {
			return
		}
		l1Col, ok := inner.Col(f.Link)
		if !ok {
			return
		}
		tAlias := f.EffAlias()
		var l2 *nalg.Col
		var l2c *adm.LinkConstraint
		var rest []nested.EqCond
		for _, c := range j.Conds {
			// Normalize so tCol is the followed-page column.
			tName, oName := c.Left, c.Right
			if !followLeft {
				tName, oName = c.Right, c.Left
			}
			tAliasOf, tRel, okT := splitCol(tName)
			if !okT || tAliasOf != tAlias {
				// Condition not on the followed page: keep as-is, unless it
				// references the follow side's earlier columns (fine).
				rest = append(rest, c)
				continue
			}
			oCol, ok := oSch.Col(oName)
			if !ok {
				return
			}
			cand, lc, ok := rw.pointerColFor(oSch, oCol, tRel, f.Target)
			if !ok {
				return
			}
			if l2 != nil && l2.Name != cand.Name {
				return // conditions disagree on the pointer column
			}
			l2, l2c = &cand, lc
		}
		if l2 == nil {
			return
		}
		out = append(out, pointerPattern{
			j: j, f: f, other: other, followLeft: followLeft,
			l1Col: l1Col, l2Col: *l2, lc: l2c, otherConds: rest,
		})
	}
	if f, ok := j.L.(*nalg.Follow); ok {
		try(f, j.R, true)
	}
	if f, ok := j.R.(*nalg.Follow); ok {
		try(f, j.L, false)
	}
	rw.pointersAt, rw.pointers = e, out
	return out
}

// pointerColFor resolves a join condition R3.B = R2.A to R2's pointer
// column L' such that following L' lands on pages where B = A, i.e. either
// A is itself a link to R3's scheme compared against R3.URL, or A is the
// anchor of a link constraint A = B on some link L' of R2. In the anchor
// case the constraint is returned so the caller can record it as the
// rewrite's precondition.
func (rw *Rewriter) pointerColFor(oSch *nalg.Schema, oCol nalg.Col, tRel, target string) (nalg.Col, *adm.LinkConstraint, bool) {
	// Case 1: direct URL comparison.
	if tRel == adm.URLAttr && oCol.Type.Kind == nested.KindLink && oCol.Type.Target == target {
		return oCol, nil, true
	}
	// Case 2: anchor comparison via a link constraint. Find a link column
	// of the same alias whose constraint says SrcAttr = oCol's path and
	// TgtAttr = tRel.
	if oCol.Scheme == "" {
		return nalg.Col{}, nil, false
	}
	for _, cand := range oSch.Cols {
		if cand.Alias != oCol.Alias || cand.Type.Kind != nested.KindLink || cand.Type.Target != target {
			continue
		}
		lc, ok := rw.WS.LinkConstraintFor(cand.Ref())
		if !ok {
			continue
		}
		if lc.TgtAttr == tRel && lc.SrcAttr.Equal(oCol.Path) {
			return *cand, &lc, true
		}
	}
	return nalg.Col{}, nil, false
}

// rule8 (pointer join): join the two pointer sets before navigating:
// (R1 →L R3) ⋈_{R3.B=R2.A} R2 = (R1 ⋈_{R1.L=R2.L'} R2) →L R3.
func (rw *Rewriter) rule8(e nalg.Expr) []result {
	var out []result
	for _, m := range rw.matchPointer(e) {
		conds := append([]nested.EqCond(nil), m.otherConds...)
		var inner *nalg.Join
		if m.followLeft {
			conds = append(conds, nested.EqCond{Left: m.l1Col.Name, Right: m.l2Col.Name})
			inner = &nalg.Join{L: m.f.In, R: m.other, Conds: conds}
		} else {
			conds = append(conds, nested.EqCond{Left: m.l2Col.Name, Right: m.l1Col.Name})
			inner = &nalg.Join{L: m.other, R: m.f.In, Conds: conds}
		}
		out = append(out, result{
			e:    &nalg.Follow{In: inner, Link: m.f.Link, Target: m.f.Target, Alias: m.f.Alias},
			rule: Rule8,
			pre:  &Precondition{Rule: Rule8, Constraint: m.lc},
		})
	}
	return out
}

// coveringNav is coveringChain, decided once per interned navigation: the
// same covering side is matched under every plan that joins against it.
func (rw *Rewriter) coveringNav(e nalg.Expr) bool {
	n := rw.memo().Node(e)
	covers, ok := rw.covering[n]
	if !ok {
		if rw.covering == nil {
			rw.covering = make(map[*nalg.Node]bool)
		}
		covers = coveringChain(rw.WS, e)
		rw.covering[n] = covers
	}
	return covers
}

// rule9 (pointer chase): when R2's pointers are included in R1's
// (R2.L' ⊆ R1.L) and R1 is a covering selection-free navigation, the join
// is computed by simply chasing R2's links:
// π_X((R1 →L R3) ⋈_{R3.B=R2.A} R2) = π_X(R2 →L' R3).
// The enclosing expression must not reference R1's columns; the enumerator
// validates candidates by re-type-checking the whole tree.
func (rw *Rewriter) rule9(e nalg.Expr) []result {
	var out []result
	for _, m := range rw.matchPointer(e) {
		if len(m.otherConds) != 0 {
			continue
		}
		if !rw.coveringNav(m.f.In) {
			continue
		}
		if !rw.WS.IncludedIn(m.l2Col.Ref(), m.l1Col.Ref()) {
			continue
		}
		sub, super := m.l2Col.Ref(), m.l1Col.Ref()
		out = append(out, result{
			e:    &nalg.Follow{In: m.other, Link: m.l2Col.Name, Target: m.f.Target, Alias: m.f.Alias},
			rule: Rule9,
			pre: &Precondition{
				Rule:          Rule9,
				Constraint:    m.lc,
				IncludedSub:   &sub,
				IncludedSuper: &super,
				Covering:      m.f.In,
			},
		})
	}
	return out
}
