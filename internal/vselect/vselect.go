// Package vselect chooses which views to materialize, following the
// benefit-driven selection of "View Selection in Semantic Web Databases":
// under a storage budget, greedily pick the candidates with the highest
// benefit per byte, where benefit is the navigation cost the recorded
// workload would stop paying and the charge is the view's refresh traffic.
// The charge is cost.Model's warm estimate at change rate 0: the light
// connections a refresh pass spends confirming every page of the extent
// unchanged, each at a tenth of a download.
//
// Candidates come from the workload recorder: the unbound extent of every
// external relation the workload touches, plus bound variants (extents
// filtered by a binding pattern) for single-relation shapes whose constant
// selections repeat. The selector is deterministic — same summaries, same
// decision — and re-runs only when the workload's shape-frequency vector
// has drifted past DriftThreshold, so a stable workload never thrashes the
// store.
package vselect

import (
	"sort"
	"strings"
	"sync"

	"ulixes/internal/cost"
	"ulixes/internal/vanswer"
	"ulixes/internal/view"
	"ulixes/internal/workload"
)

// TupleBytes is the per-tuple storage estimate used to predict an extent's
// footprint before it is built (the manager enforces the budget on measured
// bytes afterwards).
const TupleBytes = 64

// DriftThreshold re-runs selection when the workload's relative frequency
// drift reaches one half.
const DriftThreshold = 0.5

// Config tunes the selector.
type Config struct {
	// Budget is the storage budget in bytes (0 = unlimited); candidates are
	// admitted greedily by benefit per byte until it is exhausted.
	Budget int64
	// Views is the external-view registry (navigation expressions for cost
	// estimates, attribute validation for bindings).
	Views *view.Registry
	// Model, when non-nil, refines the decision: estimated extent
	// cardinalities predict storage, and warm refresh traffic is charged
	// against each candidate's benefit.
	Model *cost.Model
}

// Candidate is one scored view definition.
type Candidate struct {
	Def vanswer.Def
	// Benefit is the live pages the recorded workload would have saved,
	// minus the estimated refresh charge.
	Benefit float64
	// EstBytes is the predicted extent footprint.
	EstBytes int64
}

// Decision is the selector's output: the definitions to materialize, best
// first (the manager applies them in order under its measured-byte budget).
type Decision struct {
	Select []Candidate
	// TotalEstBytes is the summed predicted footprint of Select.
	TotalEstBytes int64
}

// Defs returns just the ordered definitions.
func (d Decision) Defs() []vanswer.Def {
	out := make([]vanswer.Def, len(d.Select))
	for i, c := range d.Select {
		out[i] = c.Def
	}
	return out
}

// Selector is a deterministic, drift-gated greedy selector. Safe for
// concurrent use.
type Selector struct {
	cfg Config

	mu       sync.Mutex
	lastFreq map[string]int // shape → freq at the last Decide; guarded by mu
	runs     int            // guarded by mu
}

// New creates a selector.
func New(cfg Config) *Selector {
	return &Selector{cfg: cfg}
}

// Runs returns how many times Decide has produced a decision.
func (s *Selector) Runs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs
}

// ShouldRun reports whether selection is due: the workload is not empty and
// selection has never run, or the workload's shape-frequency vector has
// drifted (relative L1 distance) past DriftThreshold since the last
// decision.
func (s *Selector) ShouldRun(summaries []workload.ShapeSummary) bool {
	total := 0
	cur := make(map[string]int, len(summaries))
	for _, sum := range summaries {
		cur[sum.Shape] = sum.Freq
		total += sum.Freq
	}
	if total == 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastFreq == nil {
		return true
	}
	l1 := 0
	for shape, f := range cur {
		d := f - s.lastFreq[shape]
		if d < 0 {
			d = -d
		}
		l1 += d
	}
	for shape, f := range s.lastFreq {
		if _, ok := cur[shape]; !ok {
			l1 += f
		}
	}
	return float64(l1) >= DriftThreshold*float64(total)
}

// perQueryPages estimates what one live execution of the shape costs: the
// measured average over its live samples when there are any, else the cost
// model's cold estimate of its relations' navigations. The fallback keeps a
// shape's benefit visible after its queries start hitting views (their
// recorded live cost drops to zero — without it, selection would thrash:
// materialize, starve the signal, drop, repeat).
func (s *Selector) perQueryPages(sum workload.ShapeSummary) float64 {
	live := sum.Freq - sum.FromView
	if live > 0 {
		return float64(sum.LivePages) / float64(live)
	}
	if s.cfg.Model == nil {
		return 0
	}
	total := 0.0
	for _, rel := range sum.Relations {
		ext := s.cfg.Views.Relation(rel)
		if ext == nil {
			continue
		}
		if c, err := s.cfg.Model.Cost(ext.Navs[0].Expr); err == nil {
			total += c
		}
	}
	return total
}

// refreshCharge estimates one refresh pass's traffic for a relation's
// extent: the warm estimate at change rate 0, whose light connections count
// a tenth of a download each. Without a model the charge is zero.
func (s *Selector) refreshCharge(relation string) float64 {
	if s.cfg.Model == nil {
		return 0
	}
	ext := s.cfg.Views.Relation(relation)
	if ext == nil {
		return 0
	}
	w, err := s.cfg.Model.Warm(ext.Navs[0].Expr, 0)
	if err != nil {
		return 0
	}
	return 0.1 * w.LightConnections
}

// estBytes predicts an extent's footprint from the model's cardinality
// estimate (falling back to a nominal 100 tuples), scaled down for bound
// variants by the number of distinct binding vectors observed.
func (s *Selector) estBytes(relation string, distinctBindings int) int64 {
	card := 100.0
	if s.cfg.Model != nil {
		if ext := s.cfg.Views.Relation(relation); ext != nil {
			if est, err := s.cfg.Model.Estimate(ext.Navs[0].Expr); err == nil && est.Card > 0 {
				card = est.Card
			}
		}
	}
	if distinctBindings > 1 {
		card /= float64(distinctBindings)
	}
	b := int64(card * TupleBytes)
	if b < 1 {
		b = 1
	}
	return b
}

// Decide scores the candidates against the summaries and greedily packs the
// budget by benefit per byte, keeping at most one view per relation (the
// best-scoring binding pattern, or the unbound extent). The frequency
// vector is remembered for the drift trigger.
func (s *Selector) Decide(summaries []workload.ShapeSummary) Decision {
	type cand struct {
		Candidate
		score float64
	}
	byKey := make(map[string]*cand)
	var order []string
	add := func(d vanswer.Def, benefit float64, estBytes int64) {
		key := d.Key()
		c, ok := byKey[key]
		if !ok {
			c = &cand{Candidate: Candidate{Def: d, EstBytes: estBytes}}
			byKey[key] = c
			order = append(order, key)
		}
		c.Benefit += benefit
	}
	for _, sum := range summaries {
		per := s.perQueryPages(sum)
		if per <= 0 || len(sum.Relations) == 0 {
			continue
		}
		// Unbound candidates: every relation of the shape gets an even
		// share of the shape's recurring cost.
		share := float64(sum.Freq) * per / float64(len(sum.Relations))
		for _, rel := range sum.Relations {
			add(vanswer.Def{Relation: rel}, share, s.estBytes(rel, 1))
		}
		// Bound candidates: single-relation shapes with constants — the
		// extent filtered to the observed binding vectors.
		if len(sum.Relations) != 1 || len(sum.ConstAttrs) == 0 {
			continue
		}
		rel := sum.Relations[0]
		prefix := rel + "."
		for _, bc := range sum.Bindings {
			if len(bc.Consts) != len(sum.ConstAttrs) {
				continue
			}
			d := vanswer.Def{Relation: rel}
			ok := true
			for i, attr := range sum.ConstAttrs {
				if !strings.HasPrefix(attr, prefix) {
					ok = false
					break
				}
				d.Bindings = append(d.Bindings, vanswer.Binding{
					Attr: strings.TrimPrefix(attr, prefix),
					Val:  bc.Consts[i],
				})
			}
			if !ok {
				continue
			}
			add(d, float64(bc.Freq)*per, s.estBytes(rel, len(sum.Bindings)))
		}
	}

	cands := make([]*cand, 0, len(order))
	for _, key := range order {
		c := byKey[key]
		c.Benefit -= s.refreshCharge(c.Def.Relation)
		if c.Benefit <= 0 {
			continue
		}
		c.score = c.Benefit / float64(c.EstBytes)
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].Def.Key() < cands[j].Def.Key()
	})

	var d Decision
	taken := make(map[string]bool)
	for _, c := range cands {
		if taken[c.Def.Relation] {
			continue
		}
		if s.cfg.Budget > 0 && d.TotalEstBytes+c.EstBytes > s.cfg.Budget {
			continue
		}
		taken[c.Def.Relation] = true
		d.Select = append(d.Select, c.Candidate)
		d.TotalEstBytes += c.EstBytes
	}

	s.mu.Lock()
	s.lastFreq = make(map[string]int, len(summaries))
	for _, sum := range summaries {
		s.lastFreq[sum.Shape] = sum.Freq
	}
	s.runs++
	s.mu.Unlock()
	return d
}
