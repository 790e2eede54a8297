// Package cost implements the cost function of §6.2 of the paper. Since
// data resides at a remote site, the model charges only for network
// accesses: an entry-point scan costs 1 page download, a follow-link
// R →L P costs the number of distinct outgoing links |π_L(R)|, and every
// local operator (selection, projection, join, unnest) costs 0.
//
// Step 1 estimates the cardinality of intermediate results from the site
// statistics; Step 2 sums the navigation costs over the plan. The estimator
// additionally tracks per-column distinct counts so |π_L(R)| can be
// computed for links deep in a plan, after selections and joins have
// reduced the input.
package cost

import (
	"fmt"
	"math"
	"sync"

	"ulixes/internal/adm"
	"ulixes/internal/nalg"
	"ulixes/internal/nested"
	"ulixes/internal/stats"
)

// Estimate is the estimated property set of an expression: its output
// cardinality, its per-column distinct counts, and the accumulated network
// cost of computing it.
type Estimate struct {
	// Card is the estimated number of output tuples.
	Card float64
	// Cost is the estimated number of page downloads (C(E) in the paper).
	Cost float64
	// distinct holds the estimated distinct-value count of each output
	// column, in the order of the expression's schema. Estimates are
	// immutable once computed, so an operator that leaves the counts alone
	// shares its input's slice.
	distinct []float64
	schema   *nalg.Schema
}

// Distinct returns the estimated distinct-value count of an output column,
// and whether the expression has such a column.
func (e Estimate) Distinct(col string) (float64, bool) {
	if i := e.schema.Index(col); i >= 0 {
		return e.distinct[i], true
	}
	return 0, false
}

// distinctOf returns the distinct count of a column, defaulting to the
// cardinality.
func (e Estimate) distinctOf(col string) float64 {
	if v, ok := e.Distinct(col); ok {
		return v
	}
	return e.Card
}

// capDistinct clamps every distinct count to the cardinality (a column
// cannot have more distinct values than there are tuples).
func capDistinct(distinct []float64, card float64) {
	for i, v := range distinct {
		if v > card {
			distinct[i] = card
		}
	}
}

// Unit selects what a network access costs: a page download counts 1 under
// Pages (the paper's model), or its average HTML size under Bytes (the
// refinement §6.2's footnote suggests: "the cost model can be made more
// accurate by taking into account also other parameters such as the size
// of pages").
type Unit int

// Cost units.
const (
	// Pages charges 1 per page download (§6.2).
	Pages Unit = iota
	// Bytes charges the page-scheme's average HTML size per download.
	Bytes
)

// Model estimates plan properties against a web scheme and its statistics.
// It is safe for concurrent use.
type Model struct {
	Scheme *adm.Scheme
	Stats  *stats.Stats
	// Unit selects page counting (default) or byte weighting.
	Unit Unit
	// RetryOverhead is the expected number of retry GETs per page access
	// under a faulty site — with per-attempt failure probability p and
	// enough retries, p/(1-p). Each access then costs 1+RetryOverhead, so
	// estimated and measured costs stay comparable when the resilient
	// fetcher is re-downloading pages. 0 (the default) is the paper's
	// perfectly reliable network.
	RetryOverhead float64
	// HedgeOverhead is the expected number of extra hedged GETs per page
	// access under the site-health guard — with straggler probability q
	// (the fraction of requests slower than the hedge delay), q per access.
	// Hedges trade network traffic for tail latency, so they inflate the
	// access cost exactly like retries. 0 (the default) is no hedging.
	HedgeOverhead float64
	// StaleRate is the expected fraction of accesses answered from expired
	// store entries because a circuit breaker is open. Stale serves cost no
	// network at all — their light connection is fast-failed locally — so
	// they deflate the warm traffic estimate (see Warm). 0 (the default)
	// is every origin healthy.
	StaleRate float64

	mu  sync.Mutex
	own *Estimator // over a private memo, for Estimate; guarded by mu
}

// accessMultiplier is the expected physical requests per logical access:
// the first attempt plus expected retries plus expected hedges. Negative
// configuration is clamped so the multiplier never drops below 1.
func (m *Model) accessMultiplier() float64 {
	mult := 1 + math.Max(m.RetryOverhead, 0) + math.Max(m.HedgeOverhead, 0)
	if mult < 1 {
		mult = 1
	}
	return mult
}

// accessCost returns the cost of downloading one page of the scheme under
// the model's unit, inflated by the expected retry and hedge traffic.
func (m *Model) accessCost(scheme string) float64 {
	base := 1.0
	if m.Unit == Bytes {
		base = m.Stats.AvgPageBytes(scheme)
	}
	return base * m.accessMultiplier()
}

// Cost returns C(E): the estimated number of network accesses of the plan.
func (m *Model) Cost(e nalg.Expr) (float64, error) {
	est, err := m.Estimate(e)
	if err != nil {
		return 0, err
	}
	return est.Cost, nil
}

// WarmEstimate is the predicted network traffic of evaluating a plan
// against a warm shared page store (pagecache) whose leases have expired:
// §8's maintenance cost applied to query serving.
type WarmEstimate struct {
	// LightConnections is the expected number of HEADs — one per distinct
	// page access, C(E), minus the stale-served fraction.
	LightConnections float64
	// Downloads is the expected number of full re-GETs — one per page that
	// actually changed since it was cached.
	Downloads float64
	// Stale is the expected number of accesses answered from expired
	// entries because a breaker is open — zero network traffic each.
	Stale float64
}

// Warm estimates the cost of a plan on a warm shared store under the §8
// revalidation protocol: every distinct access opens a light connection,
// and only the changeRate fraction of pages (those modified since caching)
// are re-downloaded. Within the freshness lease even the light connections
// disappear; this is the worst-case warm cost. With the site-health guard,
// the StaleRate fraction of accesses is answered from expired copies
// without any network traffic at all. It assumes the Pages unit, where
// Estimate's Cost is the distinct-access count C(E).
func (m *Model) Warm(e nalg.Expr, changeRate float64) (WarmEstimate, error) {
	changeRate = math.Min(math.Max(changeRate, 0), 1)
	staleRate := math.Min(math.Max(m.StaleRate, 0), 1)
	est, err := m.Estimate(e)
	if err != nil {
		return WarmEstimate{}, err
	}
	accesses := est.Cost / m.accessMultiplier()
	live := accesses * (1 - staleRate)
	return WarmEstimate{
		LightConnections: live,
		Downloads:        live * changeRate * m.accessMultiplier(),
		Stale:            accesses * staleRate,
	}, nil
}

// Estimate computes the full property set of an expression. The model
// keeps a plan memo of its own for this, so subexpressions shared between
// the plans it is asked about are typed and costed once.
func (m *Model) Estimate(e nalg.Expr) (Estimate, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.own == nil {
		m.own = m.On(nalg.NewMemo(m.Scheme))
	}
	return m.own.Estimate(e)
}

// Estimator is a cost model bound to a plan memo: it reads schemas from
// the memo and keeps one estimate per interned node, so a subexpression
// shared by many candidate plans is costed once. Algorithm 1 binds the
// model to the memo its rewriters intern into. An Estimator is no more
// safe for concurrent use than its memo.
type Estimator struct {
	m    *Model
	memo *nalg.Memo
	ests [][]nodeEstimate // by node ID, in chunks of estChunk
	nums nalg.Slab[float64]

	// Statistics looked up once per page-scheme and per unnested list
	// rather than once per plan node over them.
	pages map[string][]float64
	lists map[*nalg.Col]listStats
}

type nodeEstimate struct {
	est  Estimate
	err  error
	done bool
}

const estChunk = 256

// listStats are the statistics of one list attribute: its fan-out and the
// distinct counts of its element fields.
type listStats struct {
	fanout   float64
	distinct []float64
}

// On binds the model to a plan memo.
func (m *Model) On(memo *nalg.Memo) *Estimator {
	return &Estimator{m: m, memo: memo, pages: make(map[string][]float64), lists: make(map[*nalg.Col]listStats)}
}

// Estimate computes the full property set of an expression, interning it
// in the estimator's memo.
func (s *Estimator) Estimate(e nalg.Expr) (Estimate, error) {
	return s.estimate(s.memo.Node(e))
}

func (s *Estimator) estimate(n *nalg.Node) (Estimate, error) {
	id := n.ID()
	for id/estChunk >= len(s.ests) {
		s.ests = append(s.ests, make([]nodeEstimate, estChunk))
	}
	c := &s.ests[id/estChunk][id%estChunk]
	if !c.done {
		c.est, c.err = s.estimateNode(n)
		c.done = true
	}
	return c.est, c.err
}

// pageDistinct returns the distinct counts of a page-scheme's attributes,
// in declaration order.
func (s *Estimator) pageDistinct(ps *adm.PageScheme) []float64 {
	if d, ok := s.pages[ps.Name]; ok {
		return d
	}
	d := make([]float64, len(ps.Attrs))
	for i, f := range ps.Attrs {
		d[i] = s.m.Stats.DistinctOf(adm.AttrRef{Scheme: ps.Name, Path: adm.Path{f.Name}})
	}
	s.pages[ps.Name] = d
	return d
}

func (s *Estimator) estimateNode(n *nalg.Node) (Estimate, error) {
	m := s.m
	if x, ok := n.Expr().(*nalg.ExtScan); ok {
		return Estimate{}, fmt.Errorf("cost: external relation %q is not costable (apply Rule 1 first)", x.Relation)
	}
	sch, err := s.memo.SchemaOf(n)
	if err != nil {
		return Estimate{}, fmt.Errorf("cost: expression does not type-check: %w", err)
	}
	var in, right Estimate // of the operand, and of a join's right operand
	for i, k := range n.Kids() {
		est, err := s.estimate(k)
		if err != nil {
			return Estimate{}, err
		}
		if i == 0 {
			in = est
		} else {
			right = est
		}
	}
	inSch := in.schema
	est := Estimate{schema: sch}
	switch x := n.Expr().(type) {
	case *nalg.EntryScan:
		est.Card, est.Cost = 1, m.accessCost(x.Scheme)
		est.distinct = s.nums.Take(len(sch.Cols))
		for i := range est.distinct {
			est.distinct[i] = 1
		}

	case *nalg.Unnest:
		at := inSch.Index(x.Attr)
		col := inSch.Cols[at]
		ls := s.listStats(col)
		// |R ◦ L| = |R| × |L| (§6.2 Step 1), with the fan-out measured per
		// occurrence of the list's parent.
		est.Card, est.Cost = in.Card*ls.fanout, in.Cost
		est.distinct = s.nums.Take(len(sch.Cols))[:0]
		est.distinct = append(est.distinct, in.distinct[:at]...)
		est.distinct = append(est.distinct, in.distinct[at+1:]...)
		est.distinct = append(est.distinct, ls.distinct...)
		capDistinct(est.distinct, est.Card)

	case *nalg.Follow:
		link := inSch.Index(x.Link)
		links := in.distinct[link]
		// C(R →L P) = |π_L(R)|: the number of distinct outgoing links,
		// each weighted by the target's page size under the Bytes unit.
		est.Card, est.Cost = in.Card, in.Cost+links*m.accessCost(x.Target)
		// Each non-null link matches exactly one page (URL is a key); with
		// an optional link some tuples navigate to nothing.
		if inSch.Cols[link].Optional {
			est.Card = in.Card * 0.5
		}
		est.distinct = s.nums.Take(len(sch.Cols))[:0]
		est.distinct = append(est.distinct, in.distinct...)
		est.distinct = append(est.distinct, links)
		est.distinct = append(est.distinct, s.pageDistinct(m.Scheme.Page(x.Target))...)
		capDistinct(est.distinct, est.Card)

	case *nalg.Select:
		est.distinct = s.nums.Take(len(in.distinct))
		copy(est.distinct, in.distinct)
		sel := 1.0
		var buf [4]nested.Predicate
		for _, p := range flattenPreds(x.Pred, buf[:0]) {
			switch q := p.(type) {
			case nested.ConstPred:
				if q.Op == nested.OpEq {
					at := inSch.Index(q.Attr)
					if d := in.distinct[at]; d > 0 {
						sel *= 1 / d // s_A = 1/c_A
					}
					est.distinct[at] = 1
				} else {
					sel *= 0.5
				}
			case nested.AttrPred:
				if q.Op == nested.OpEq {
					d := math.Max(in.distinctOf(q.Left), in.distinctOf(q.Right))
					if d > 0 {
						sel *= 1 / d
					}
				} else {
					sel *= 0.5
				}
			default:
				sel *= 0.5
			}
		}
		est.Card, est.Cost = in.Card*sel, in.Cost
		capDistinct(est.distinct, est.Card)

	case *nalg.Project:
		// |π_X(R)| ≤ min(|R|, Π c_x): projection removes duplicates
		// (§6.2: |π_A(P)| = |P| / r_A, i.e. the distinct count).
		est.distinct = s.nums.Take(len(x.Cols))
		card := 1.0
		for i, colName := range x.Cols {
			d := in.distinct[inSch.Index(colName)]
			est.distinct[i] = d
			card *= d
		}
		est.Card, est.Cost = math.Min(in.Card, card), in.Cost
		capDistinct(est.distinct, est.Card)

	case *nalg.Join:
		l, r := in, right
		est.distinct = s.nums.Take(len(sch.Cols))[:0]
		est.distinct = append(append(est.distinct, l.distinct...), r.distinct...)
		sel := 1.0
		for _, c := range x.Conds {
			li, ri := l.schema.Index(c.Left), r.schema.Index(c.Right)
			lc, rc := l.schema.Cols[li], r.schema.Cols[ri]
			ld, rd := l.distinct[li], r.distinct[ri]
			// Join columns agree: their distinct counts collapse to the
			// smaller side.
			est.distinct[li] = math.Min(ld, rd)
			est.distinct[len(l.distinct)+ri] = math.Min(ld, rd)
			if lc.Scheme != "" && rc.Scheme != "" {
				if override, ok := m.Stats.JoinSelectivity(lc.Ref(), rc.Ref()); ok {
					sel *= override
					continue
				}
			}
			// A join of two link (pointer) sets targeting the same
			// page-scheme is an intersection of two subsets of that
			// scheme's URL domain (§7, Example 7.1: "the join is an
			// intersection of two link sets"); under the paper's uniform
			// assumption its selectivity is 1/|P| for target scheme P.
			if lc.Type.Kind == nested.KindLink && rc.Type.Kind == nested.KindLink && rc.Type.Target == lc.Type.Target {
				if card := m.Stats.SchemeCard(lc.Type.Target); card > 0 {
					sel *= 1 / card
					continue
				}
			}
			if d := math.Max(ld, rd); d > 0 {
				sel *= 1 / d
			}
		}
		est.Card, est.Cost = l.Card*r.Card*sel, l.Cost+r.Cost
		capDistinct(est.distinct, est.Card)

	case *nalg.Rename:
		// Same columns in the same order under new names.
		est.Card, est.Cost, est.distinct = in.Card, in.Cost, in.distinct

	default:
		return Estimate{}, fmt.Errorf("cost: unknown expression node %T", n.Expr())
	}
	return est, nil
}

// listStats returns the statistics of the list attribute a column holds.
// The memo shares a list's column between every schema that has it, so the
// column itself is the key.
func (s *Estimator) listStats(col *nalg.Col) listStats {
	if ls, ok := s.lists[col]; ok {
		return ls
	}
	ls := listStats{fanout: s.m.Stats.FanoutOf(col.Ref()), distinct: make([]float64, len(col.Type.Elem))}
	for i, f := range col.Type.Elem {
		ref := adm.AttrRef{Scheme: col.Scheme, Path: append(append(adm.Path(nil), col.Path...), f.Name)}
		ls.distinct[i] = s.m.Stats.DistinctOf(ref)
	}
	s.lists[col] = ls
	return ls
}

// flattenPreds appends the conjuncts of p to out.
func flattenPreds(p nested.Predicate, out []nested.Predicate) []nested.Predicate {
	if and, ok := p.(nested.AndPred); ok {
		for _, sub := range and {
			out = flattenPreds(sub, out)
		}
		return out
	}
	return append(out, p)
}
