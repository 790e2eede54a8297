package rewrite

import (
	"slices"

	"ulixes/internal/adm"
	"ulixes/internal/nalg"
)

// DefaultMaxPlans bounds the plan set each expansion phase may produce.
// Conjunctive queries over a handful of external relations stay well under
// it; the bound is a safety valve against rule interactions.
const DefaultMaxPlans = 4096

// Reset readies the rewriter for a new search over ws that interns in
// memo, which has just been reset, keeping the memory its caches have
// grown. Everything it has cached is dropped: the variant lists and the
// covering decisions are keyed by node, and the join matchPointer last
// matched by identity, and the new search's nodes and expressions may sit
// where the old ones did.
func (rw *Rewriter) Reset(ws *adm.Scheme, memo *nalg.Memo) {
	rw.WS, rw.Memo = ws, memo
	rw.variantsOf = rw.variantsOf[:0]
	rw.variantRules = 0
	rw.lists.Reset()
	clear(rw.covering)
	rw.pointersAt, rw.pointers = nil, nil
	rw.audit = nil
}

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
	if old := len(rw.variantsOf); id >= old {
		// Room for every node interned so far: a node's variants are asked
		// for after it, and everything below it, was interned. Entries past
		// the length may be an earlier search's, so they are cleared.
		n := max(m.Len(), 2*old)
		rw.variantsOf = slices.Grow(rw.variantsOf, n-old)[:n]
		clear(rw.variantsOf[old:])
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
// and one plan per canonical key (see nalg.Memo.Key). The result is in
// discovery order: the seeds in the order given, then, breadth first, each
// plan's variants in rule order (see variants). It is bounded by maxPlans,
// which cuts the search where the breadth-first order reaches it, so the
// order of the seeds decides which plans a capped expansion keeps. The
// plans returned are interned in the rewriter's memo.
func (rw *Rewriter) Expand(seeds []nalg.Expr, maxPlans int) []nalg.Expr {
	if maxPlans <= 0 {
		maxPlans = DefaultMaxPlans
	}
	m := rw.memo()
	// Every plan kept is queued once, so the queue is also the result.
	seen, queue := rw.seen[:0], rw.queue[:0]
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
		queue = append(queue, n)
	}
	for _, s := range seeds {
		push(m.Node(s))
	}
	for next := 0; next < len(queue) && len(queue) < maxPlans; next++ {
		for _, v := range rw.variants(queue[next]) {
			if len(queue) >= maxPlans {
				break
			}
			push(v.n)
		}
	}
	plans := make([]nalg.Expr, len(queue))
	for i, n := range queue {
		plans[i] = n.Expr()
	}
	clear(seen)
	clear(queue)
	rw.seen, rw.queue = seen[:0], queue[:0]
	return plans
}
