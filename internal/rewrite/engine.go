package rewrite

import (
	"slices"
	"strings"

	"ulixes/internal/nalg"
)

// DefaultMaxPlans bounds the plan set each expansion phase may produce.
// Conjunctive queries over a handful of external relations stay well under
// it; the bound is a safety valve against rule interactions.
const DefaultMaxPlans = 4096

// memo returns the plan memo rewrites are interned in: the one the caller
// shares with the other phases and the cost model, or a private one.
func (rw *Rewriter) memo() *nalg.Memo {
	if rw.Memo == nil {
		rw.Memo = nalg.NewMemo(rw.WS)
	}
	return rw.Memo
}

// variant is one whole-subtree rewrite of an interned node: the node it
// becomes, and the column substitution the enclosing operators must apply.
type variant struct {
	n      *nalg.Node
	colmap map[string]string
}

// noVariants is the computed, empty variant list; nil is "not computed".
var noVariants = []variant{}

// variants returns every whole-subtree rewrite obtained by firing one
// enabled rule at one node of n's expression: the rewrites at n itself,
// then, child by child, the child's variants plugged back into n. The
// column map a rewrite carries is applied to every enclosing operator on
// the way up. The list depends only on the expression and the rule set, so
// it is computed once per interned node; candidate plans share most of
// their subtrees, and with them these lists.
func (rw *Rewriter) variants(n *nalg.Node) []variant {
	if rw.variantRules != rw.Rules {
		rw.variantRules = rw.Rules
		clear(rw.variantsOf)
	}
	m := rw.memo()
	id := n.ID()
	if id >= len(rw.variantsOf) {
		// Room for every node interned so far: a node's variants are asked
		// for after it, and everything below it, was interned.
		grown := make([][]variant, max(m.Len(), 2*len(rw.variantsOf)))
		copy(grown, rw.variantsOf)
		rw.variantsOf = grown
	}
	if list := rw.variantsOf[id]; list != nil {
		return list
	}
	own := rw.ruleResults(n.Expr())
	kids := n.Kids()
	size := len(own)
	for _, kid := range kids {
		size += len(rw.variants(kid))
	}
	out := noVariants
	if size > 0 {
		out = rw.lists.Take(size)[:0]
	}
	for _, r := range own {
		out = append(out, variant{n: m.Node(r.e), colmap: r.colmap})
	}
	for i, kid := range kids {
		for _, v := range rw.variants(kid) {
			if len(v.colmap) == 0 {
				out = append(out, variant{n: m.WithKid(n, i, v.n)})
				continue
			}
			var newKids [2]nalg.Expr
			for j, k := range kids {
				newKids[j] = k.Expr()
			}
			newKids[i] = v.n.Expr()
			out = append(out, variant{n: m.Node(substNode(n.Expr(), newKids[:len(kids)], v.colmap)), colmap: v.colmap})
		}
	}
	rw.variantsOf[id] = out
	return out
}

// Expand computes the closure of the seed expressions under the enabled
// rules, keeping only candidates that still type-check against the scheme
// and one plan per canonical key (see nalg.Memo.Key). The result is
// deterministic (sorted by rendering) and bounded by maxPlans; the plans
// returned are interned in the rewriter's memo.
func (rw *Rewriter) Expand(seeds []nalg.Expr, maxPlans int) []nalg.Expr {
	if maxPlans <= 0 {
		maxPlans = DefaultMaxPlans
	}
	m := rw.memo()
	var seen []bool // by canonical key
	var all []rendered
	var queue []*nalg.Node
	push := func(n *nalg.Node) {
		if _, err := m.SchemaOf(n); err != nil {
			return
		}
		k := int(m.Key(n))
		if k >= len(seen) {
			seen = append(seen, make([]bool, max(k+1, 2*len(seen))-len(seen))...)
		}
		if seen[k] {
			return
		}
		seen[k] = true
		all = append(all, rendered{e: n.Expr()})
		queue = append(queue, n)
	}
	for _, s := range seeds {
		push(m.Node(s))
	}
	for len(queue) > 0 && len(all) < maxPlans {
		cur := queue[0]
		queue = queue[1:]
		for _, v := range rw.variants(cur) {
			if len(all) >= maxPlans {
				break
			}
			push(v.n)
		}
	}
	for i := range all {
		all[i].s = all[i].e.String()
	}
	slices.SortFunc(all, func(a, b rendered) int { return strings.Compare(a.s, b.s) })
	plans := make([]nalg.Expr, len(all))
	for i, r := range all {
		plans[i] = r.e
	}
	return plans
}

// rendered is a plan beside its rendering, the order Expand returns plans
// in.
type rendered struct {
	e nalg.Expr
	s string
}
