// Package rewrite implements the NALG rewriting rules of §6.1 of the paper
// (Rules 1–9) and the bounded exhaustive plan enumeration that Algorithm 1
// drives. Rules are whole-tree transformations: a rule fires at a node and
// may carry a column-substitution map that the enumerator applies to all
// enclosing operators (needed when a rewrite merges two navigations and one
// set of column names disappears).
package rewrite

import (
	"ulixes/internal/nalg"
	"ulixes/internal/nested"
)

// substPredFn rewrites predicate column references through a function.
func substPredFn(p nested.Predicate, get func(string) string) nested.Predicate {
	switch q := p.(type) {
	case nested.ConstPred:
		q.Attr = get(q.Attr)
		return q
	case nested.AttrPred:
		q.Left = get(q.Left)
		q.Right = get(q.Right)
		return q
	case nested.AndPred:
		out := make(nested.AndPred, len(q))
		for i, sub := range q {
			out[i] = substPredFn(sub, get)
		}
		return out
	default:
		return p
	}
}

// mapName returns the name under m, or the name itself when m has no entry.
func mapName(m map[string]string) func(string) string {
	return func(name string) string {
		if nn, ok := m[name]; ok {
			return nn
		}
		return name
	}
}

// rebuild builds e's operator over new operands, with its column
// references mapped through col and its scan and follow aliases through
// alias; a nil alias leaves aliases unchanged. kid returns the new i-th
// operand given the old one. A rename's map is keyed by the columns it
// renames, so only its keys are mapped.
func rebuild(e nalg.Expr, kid func(i int, old nalg.Expr) nalg.Expr, col, alias func(string) string) nalg.Expr {
	switch x := e.(type) {
	case *nalg.EntryScan:
		if alias == nil {
			return e
		}
		return &nalg.EntryScan{Scheme: x.Scheme, URL: x.URL, Alias: alias(x.EffAlias())}
	case *nalg.Unnest:
		return &nalg.Unnest{In: kid(0, x.In), Attr: col(x.Attr)}
	case *nalg.Follow:
		a := x.Alias
		if alias != nil {
			a = alias(x.EffAlias())
		}
		return &nalg.Follow{In: kid(0, x.In), Link: col(x.Link), Target: x.Target, Alias: a}
	case *nalg.Select:
		return &nalg.Select{In: kid(0, x.In), Pred: substPredFn(x.Pred, col)}
	case *nalg.Project:
		cols := make([]string, len(x.Cols))
		for i, c := range x.Cols {
			cols[i] = col(c)
		}
		return &nalg.Project{In: kid(0, x.In), Cols: cols}
	case *nalg.Join:
		conds := make([]nested.EqCond, len(x.Conds))
		for i, c := range x.Conds {
			conds[i] = nested.EqCond{Left: col(c.Left), Right: col(c.Right)}
		}
		return &nalg.Join{L: kid(0, x.L), R: kid(1, x.R), Conds: conds}
	case *nalg.Rename:
		nm := make(map[string]string, len(x.Map))
		for old, nn := range x.Map {
			nm[col(old)] = nn
		}
		return &nalg.Rename{In: kid(0, x.In), Map: nm}
	default:
		return e
	}
}

// fold rebuilds every node of e, operands first.
func fold(e nalg.Expr, col, alias func(string) string) nalg.Expr {
	return rebuild(e, func(_ int, k nalg.Expr) nalg.Expr { return fold(k, col, alias) }, col, alias)
}

// substCols rewrites every column reference in an expression tree according
// to the map. It renames references only — aliases embedded in scans stay
// untouched, so it must only be used with maps produced by rules that
// eliminate the mapped columns' producer.
func substCols(e nalg.Expr, m map[string]string) nalg.Expr {
	if len(m) == 0 {
		return e
	}
	return fold(e, mapName(m), nil)
}

// substNode rewrites the column references of a single node (not its
// children), plugging in the given children. It is the shallow counterpart
// of substCols used by the enumerator when a child rewrite carries a column
// map upward.
func substNode(e nalg.Expr, kids []nalg.Expr, m map[string]string) nalg.Expr {
	return rebuild(e, func(i int, _ nalg.Expr) nalg.Expr { return kids[i] }, mapName(m), nil)
}
