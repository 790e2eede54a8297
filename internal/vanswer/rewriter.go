// Package vanswer answers conjunctive queries from materialized views
// instead of navigating the live site — the missing half of §8: the store
// materializes, vanswer makes queries actually use it.
//
// A view here is the stored extent of one external relation, optionally
// under a binding pattern (a set of constant selections baked into the
// extent, à la Romero et al., "Equivalent Rewritings on Path Views with
// Binding Patterns": a NALG follow-chain is exactly a path view whose
// binding pattern is the selection pushed into it). The rewriter decides,
// per query atom, whether some stored view covers it soundly:
//
//   - the view's binding pattern must be a subset of the query's constant
//     selections on that atom (a view bound to Rank='Full' holds only the
//     full professors — it cannot answer an unbound professor scan, which
//     is the classic unsound-containment case);
//   - the view must be within its freshness horizon (stale views are
//     unusable unless stale-serving is explicitly allowed);
//   - every atom must be covered — vanswer never mixes stored and live
//     tuples inside one query, so the answer is exactly what the live plan
//     would compute over the materialized site state.
//
// Residual predicates (the query constants beyond the binding pattern, and
// all join conditions) are evaluated locally on the stored tuples. When no
// sound rewrite exists the caller falls back to the live NALG plan; the
// rewriter only ever *declines*, it never guesses.
package vanswer

import (
	"fmt"
	"sync"
	"time"

	"ulixes/internal/cq"
	"ulixes/internal/nested"
	"ulixes/internal/view"
)

// Binding is one constant selection of a view's binding pattern: the extent
// holds only tuples with Attr = Val.
type Binding struct {
	Attr string
	Val  string
}

// Def identifies a view: an external relation plus an optional binding
// pattern. Bindings are normalized (sorted by attribute) by the manager.
type Def struct {
	Relation string
	Bindings []Binding
}

// Key renders the definition canonically, for maps and display:
// "Professor[Rank='Full']".
func (d Def) Key() string {
	s := d.Relation
	if len(d.Bindings) > 0 {
		s += "["
		for i, b := range d.Bindings {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("%s='%s'", b.Attr, b.Val)
		}
		s += "]"
	}
	return s
}

// View is one materialized view: the definition plus its stored extent
// (columns are the relation's external attributes), the refresh timestamp
// the freshness horizon is measured against, and the extent's storage cost.
type View struct {
	Def
	// Rel is the extent; its columns are the relation's external attributes.
	Rel *nested.Relation
	// RefreshedAt is when the extent was last built or refreshed.
	RefreshedAt time.Time
	// Bytes is the extent's storage footprint (summed canonical tuple
	// encodings).
	Bytes int64
}

// Counters tallies the rewriter's decisions. TestCountersAddFoldsEveryField
// holds Add to folding every field.
type Counters struct {
	// Hits is the number of queries answered from views.
	Hits int
	// Misses is the number of queries that fell back to the live plan.
	Misses int
	// BindingRejections counts candidate views rejected because their
	// binding pattern was not implied by the query (the unsound-rewrite
	// case).
	BindingRejections int
	// StaleRejections counts candidate views rejected for being past the
	// freshness horizon.
	StaleRejections int
	// StaleAllowed counts queries answered from views past the horizon
	// because stale serving was explicitly allowed.
	StaleAllowed int
}

// Add folds another rewriter's counters into c.
func (c *Counters) Add(o Counters) {
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.BindingRejections += o.BindingRejections
	c.StaleRejections += o.StaleRejections
	c.StaleAllowed += o.StaleAllowed
}

// Config tunes the rewriter.
type Config struct {
	// Horizon is the freshness horizon: a view whose RefreshedAt is older
	// than this is unusable. 0 means no horizon (views never expire).
	Horizon time.Duration
	// AllowStale serves views past the horizon anyway (counted in
	// Counters.StaleAllowed), for callers that prefer a fast degraded
	// answer over live navigation.
	AllowStale bool
	// Clock overrides the time source (nil means time.Now), so freshness
	// tests are deterministic.
	Clock func() time.Time
}

// Rewriter holds the current set of materialized views and answers queries
// from them. It is safe for concurrent use: TryAnswer reads an immutable
// view set snapshot, and Set/Drop replace entries under the lock.
type Rewriter struct {
	views *view.Registry
	cfg   Config

	mu       sync.Mutex
	byRel    map[string][]*View // guarded by mu
	counters Counters           // guarded by mu
}

// NewRewriter creates a rewriter over the external-view registry with no
// materialized views.
func NewRewriter(reg *view.Registry, cfg Config) *Rewriter {
	return &Rewriter{views: reg, cfg: cfg, byRel: make(map[string][]*View)}
}

func (r *Rewriter) now() time.Time {
	if r.cfg.Clock != nil {
		return r.cfg.Clock()
	}
	return time.Now()
}

// SetAll replaces the whole view set (the selector emits complete desired
// sets; drops are implicit).
func (r *Rewriter) SetAll(views []*View) {
	byRel := make(map[string][]*View)
	for _, v := range views {
		byRel[v.Relation] = append(byRel[v.Relation], v)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byRel = byRel
}

// AdvanceRefreshed restamps every current view as refreshed no earlier than
// the given instant — the push feed's clean-sweep signal: every stored page
// was just verified against the site, so the extents are exactly as fresh as
// a full Refresh would have made them, without rebuilding anything. Fresh
// View values and slices are installed rather than mutating the current ones
// in place, because TryAnswer iterates its candidate slice outside the lock.
func (r *Rewriter) AdvanceRefreshed(at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	byRel := make(map[string][]*View, len(r.byRel))
	for rel, vs := range r.byRel {
		nvs := make([]*View, len(vs))
		for i, v := range vs {
			nv := *v
			if at.After(nv.RefreshedAt) {
				nv.RefreshedAt = at
			}
			nvs[i] = &nv
		}
		byRel[rel] = nvs
	}
	r.byRel = byRel
}

// Views returns the current views, grouped by relation (shared slices; do
// not mutate).
func (r *Rewriter) Views() []*View {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*View
	for _, vs := range r.byRel {
		out = append(out, vs...)
	}
	return out
}

// Bytes returns the summed storage footprint of the current views.
func (r *Rewriter) Bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, vs := range r.byRel {
		for _, v := range vs {
			total += v.Bytes
		}
	}
	return total
}

// Counters returns a snapshot of the decision counters.
func (r *Rewriter) Counters() Counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters
}

// usable picks the best current view for one atom given the query's
// constant selections on it: the freshest-possible view whose binding
// pattern is implied by the constants, preferring the most tightly bound
// extent (smallest storage scanned). It reports why candidates were
// rejected so the counters explain misses.
func (r *Rewriter) usable(relation string, consts map[string]string, now time.Time) (v *View, bindingRejected, staleRejected int, staleUsed bool) {
	r.mu.Lock()
	candidates := r.byRel[relation]
	r.mu.Unlock()
	var bestStale *View
	for _, c := range candidates {
		implied := true
		for _, b := range c.Bindings {
			if consts[b.Attr] != b.Val {
				implied = false
				break
			}
		}
		if !implied {
			bindingRejected++
			continue
		}
		fresh := r.cfg.Horizon <= 0 || now.Sub(c.RefreshedAt) <= r.cfg.Horizon
		if !fresh {
			if r.cfg.AllowStale {
				if bestStale == nil || len(c.Bindings) > len(bestStale.Bindings) {
					bestStale = c
				}
			} else {
				staleRejected++
			}
			continue
		}
		if v == nil || len(c.Bindings) > len(v.Bindings) {
			v = c
		}
	}
	if v == nil && bestStale != nil {
		return bestStale, bindingRejected, staleRejected, true
	}
	return v, bindingRejected, staleRejected, false
}

// TryAnswer attempts to answer the query from the current views. ok=false
// means no sound rewrite exists (or the query shape is not supported) and
// the caller must run the live plan; an error means the rewrite was chosen
// but local evaluation failed (callers should also fall back). The returned
// relation is byte-identical to what the live plan would produce over the
// materialized site state: same columns, same names, same set semantics.
func (r *Rewriter) TryAnswer(q *cq.Query) (*nested.Relation, bool, error) {
	if err := q.Validate(); err != nil {
		return r.miss(Counters{}) // let the live path report the error
	}
	q, err := r.views.ExpandStar(q)
	if err != nil {
		return r.miss(Counters{})
	}
	now := r.now()

	// Per-atom constant selections (alias → attr → value). A contradictory
	// pair of constants on one attribute makes the query's answer empty
	// either way, but the binding-implication test below needs one value per
	// attribute — decline and let the live plan handle it.
	constsOf := make(map[string]map[string]string, len(q.From))
	for _, a := range q.From {
		constsOf[a.EffAlias()] = make(map[string]string)
	}
	for _, c := range q.Consts {
		m := constsOf[c.Attr.Atom]
		if prev, dup := m[c.Attr.Attr]; dup && prev != c.Val {
			return r.miss(Counters{})
		}
		m[c.Attr.Attr] = c.Val
	}

	// Choose a view per atom; every atom must be covered.
	chosen := make([]*View, len(q.From))
	var tally Counters
	for i, a := range q.From {
		v, br, sr, staleUsed := r.usable(a.Relation, constsOf[a.EffAlias()], now)
		tally.BindingRejections += br
		tally.StaleRejections += sr
		if staleUsed {
			tally.StaleAllowed++
		}
		if v == nil {
			return r.miss(tally)
		}
		chosen[i] = v
	}

	rel, err := r.evaluate(q, chosen)
	if err != nil {
		_, _, _ = r.miss(tally)
		return nil, false, err
	}
	tally.Hits = 1
	r.mu.Lock()
	r.counters.Add(tally)
	r.mu.Unlock()
	return rel, true, nil
}

// miss records a fallback decision (plus any per-candidate rejection tally)
// and returns the standard decline triple.
func (r *Rewriter) miss(tally Counters) (*nested.Relation, bool, error) {
	tally.Misses = 1
	r.mu.Lock()
	r.counters.Add(tally)
	r.mu.Unlock()
	return nil, false, nil
}

// evaluate runs the rewritten query locally: per-atom selections on the
// stored extents, a left-deep join in FROM order, then cq.Output's
// projection and rename — the rule the optimizer's translation applies —
// so the result is byte-identical to live execution.
func (r *Rewriter) evaluate(q *cq.Query, chosen []*View) (*nested.Relation, error) {
	aliasIdx := make(map[string]int, len(q.From))
	for i, a := range q.From {
		aliasIdx[a.EffAlias()] = i
	}
	// Per-atom plans: qualify extent columns with the atom alias, apply the
	// query's constant selections (a superset of the view's binding pattern
	// — re-applying bound constants is a no-op) and same-atom join
	// predicates.
	parts := make([]*nested.Relation, len(q.From))
	for i, a := range q.From {
		alias := a.EffAlias()
		ext := r.views.Relation(a.Relation)
		if ext == nil {
			return nil, fmt.Errorf("vanswer: unknown external relation %q", a.Relation)
		}
		ren := make(map[string]string, len(ext.Attrs))
		for _, attr := range ext.Attrs {
			ren[attr] = alias + "." + attr
		}
		rel, err := chosen[i].Rel.Rename(ren)
		if err != nil {
			return nil, err
		}
		for _, c := range q.Consts {
			if c.Attr.Atom != alias {
				continue
			}
			rel, err = rel.Select(nested.Eq(alias+"."+c.Attr.Attr, c.Val))
			if err != nil {
				return nil, err
			}
		}
		for _, j := range q.Joins {
			if j.Left.Atom != alias || j.Right.Atom != alias {
				continue
			}
			rel, err = rel.Select(nested.AttrPred{
				Left:  alias + "." + j.Left.Attr,
				Op:    nested.OpEq,
				Right: alias + "." + j.Right.Attr,
			})
			if err != nil {
				return nil, err
			}
		}
		parts[i] = rel
	}
	// Left-deep join in FROM order. A cross-atom condition applies when its
	// later atom joins in; the hash join handles the rest.
	joined := parts[0]
	for i := 1; i < len(parts); i++ {
		var conds []nested.EqCond
		for _, j := range q.Joins {
			li, ri := aliasIdx[j.Left.Atom], aliasIdx[j.Right.Atom]
			l, rr := j.Left, j.Right
			if li == ri {
				continue
			}
			if ri < li {
				li, ri = ri, li
				l, rr = rr, l
			}
			if ri != i {
				continue
			}
			conds = append(conds, nested.EqCond{
				Left:  l.Atom + "." + l.Attr,
				Right: rr.Atom + "." + rr.Attr,
			})
		}
		var err error
		joined, err = joined.Join(parts[i], conds)
		if err != nil {
			return nil, err
		}
	}
	// An output rule error is the one the optimizer reports too; returning
	// it declines, so the live path surfaces it.
	cols, ren, err := cq.Output(q.Select, func(u cq.AttrUse) (string, error) { return u.String(), nil })
	if err != nil {
		return nil, err
	}
	return projectOut(joined, cols, ren)
}

// projectOut applies an output rule's projection and rename to a relation.
func projectOut(rel *nested.Relation, cols []string, ren map[string]string) (*nested.Relation, error) {
	out, err := rel.Project(cols)
	if err != nil || len(ren) == 0 {
		return out, err
	}
	return out.Rename(ren)
}
