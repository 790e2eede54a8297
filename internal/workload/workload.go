// Package workload records the query workload a running system actually
// serves: which conjunctive-query shapes arrive, how often, with which
// constants, and what each execution cost. The record is the input to
// benefit-driven view selection ("View Selection in Semantic Web
// Databases"): a view is only worth materializing if the workload keeps
// paying for the navigation it would replace.
//
// Shapes reuse the prepared-plan cache's canonicalization: constants are
// parameterized out with NUL-framed placeholders, so "Rank='Full'" and
// "Rank='Assistant'" are the same shape with different bindings. The
// concrete constants are kept per sample — bound views (views with binding
// patterns) need them.
package workload

import (
	"sort"
	"strings"
	"sync"
	"time"

	"ulixes/internal/cq"
	"ulixes/internal/plancache"
)

// DefaultCapacity is the ring size when a Recorder is built with none: large
// enough to cover the recent workload a selector should react to, small
// enough that an unbounded query stream cannot grow the server's memory.
const DefaultCapacity = 1024

// Sample is one recorded query execution.
type Sample struct {
	// Shape is the canonicalized query text: constants replaced by ordinal
	// placeholders, so equal shapes differ only in bindings.
	Shape string
	// Relations are the external relations the query's FROM clause touches,
	// in atom order (with repeats for self-joins).
	Relations []string
	// Consts are the concrete constant values, in the query's constant
	// order — the bindings that, paired with the shape, reproduce the query.
	Consts []string
	// ConstAttrs are the attribute names the constants select on
	// (relation-qualified, "Professor.Rank"), aligned with Consts.
	ConstAttrs []string
	// Pages is the measured number of live page downloads.
	Pages int
	// Accesses is the measured distinct-access count C(E) — downloads plus
	// cache hits, revalidations and stale serves.
	Accesses int
	// Wall is the measured execution time.
	Wall time.Duration
	// FromView reports that the query was answered from a materialized
	// view (and therefore cost no navigation at all).
	FromView bool
}

// Stats counts the recorder's traffic.
type Stats struct {
	// Recorded is the number of samples accepted.
	Recorded int
	// Evicted is the number of samples the ring overwrote.
	Evicted int
	// Dropped is the number of queries that could not be canonicalized
	// (constants containing the placeholder alphabet) and were not recorded.
	Dropped int
}

// Recorder is a fixed-capacity ring of recent query samples. It is safe for
// concurrent use; recording is O(1) and never blocks on anything but the
// recorder's own mutex.
type Recorder struct {
	mu    sync.Mutex
	ring  []Sample // guarded by mu
	next  int      // guarded by mu
	stats Stats    // guarded by mu
}

// NewRecorder creates a recorder holding the most recent capacity samples
// (DefaultCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{ring: make([]Sample, 0, capacity)}
}

// Observed is the measured cost of one execution, as reported by the engine.
type Observed struct {
	Pages    int
	Accesses int
	Wall     time.Duration
	FromView bool
}

// Record canonicalizes the query and appends a sample, evicting the oldest
// when the ring is full. Queries whose constants cannot be parameterized
// (NUL bytes) are counted in Stats.Dropped and skipped.
func (r *Recorder) Record(q *cq.Query, obs Observed) {
	canon, params, ok := plancache.Canonicalize(q)
	if !ok {
		r.mu.Lock()
		r.stats.Dropped++
		r.mu.Unlock()
		return
	}
	rels := make([]string, len(q.From))
	for i, a := range q.From {
		rels[i] = a.Relation
	}
	attrs := make([]string, len(q.Consts))
	for i, c := range q.Consts {
		rel := c.Attr.Atom
		if a, found := q.Atom(c.Attr.Atom); found {
			rel = a.Relation
		}
		attrs[i] = rel + "." + c.Attr.Attr
	}
	s := Sample{
		Shape:      canon.String(),
		Relations:  rels,
		Consts:     params,
		ConstAttrs: attrs,
		Pages:      obs.Pages,
		Accesses:   obs.Accesses,
		Wall:       obs.Wall,
		FromView:   obs.FromView,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Recorded++
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, s)
		return
	}
	r.ring[r.next] = s
	r.next = (r.next + 1) % cap(r.ring)
	r.stats.Evicted++
}

// Len returns the number of samples currently held.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// Stats returns a snapshot of the recorder's counters.
func (r *Recorder) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// BindingCount is one concrete constant vector of a shape with its
// occurrence count.
type BindingCount struct {
	// Consts is the constant vector, aligned with the shape's placeholders.
	Consts []string
	// Freq is how many held samples used it.
	Freq int
}

// ShapeSummary aggregates the held samples of one query shape.
type ShapeSummary struct {
	// Shape is the canonicalized query text.
	Shape string
	// Relations are the external relations the shape's FROM clause touches.
	Relations []string
	// ConstAttrs are the relation-qualified attributes the shape's
	// constants select on.
	ConstAttrs []string
	// Freq is the number of held samples of this shape.
	Freq int
	// LivePages is the summed live download count of the shape's samples
	// that were NOT answered from a view — the navigation cost the workload
	// keeps paying.
	LivePages int
	// Accesses is the summed distinct-access count across all samples.
	Accesses int
	// Wall is the summed execution time across all samples.
	Wall time.Duration
	// FromView is how many of the samples were answered from a view.
	FromView int
	// Bindings are the shape's concrete constant vectors by descending
	// frequency (ties broken by the vector's text, for determinism).
	Bindings []BindingCount
}

// Snapshot aggregates the held samples per shape, most frequent first (ties
// broken by shape text). It is the selector's input.
func (r *Recorder) Snapshot() []ShapeSummary {
	r.mu.Lock()
	samples := make([]Sample, len(r.ring))
	copy(samples, r.ring)
	r.mu.Unlock()

	byShape := make(map[string]*ShapeSummary)
	bindings := make(map[string]map[string]*BindingCount)
	var order []string
	for _, s := range samples {
		sum, ok := byShape[s.Shape]
		if !ok {
			sum = &ShapeSummary{Shape: s.Shape, Relations: s.Relations, ConstAttrs: s.ConstAttrs}
			byShape[s.Shape] = sum
			bindings[s.Shape] = make(map[string]*BindingCount)
			order = append(order, s.Shape)
		}
		sum.Freq++
		sum.Accesses += s.Accesses
		sum.Wall += s.Wall
		if s.FromView {
			sum.FromView++
		} else {
			sum.LivePages += s.Pages
		}
		key := strings.Join(s.Consts, "\x00")
		bc, ok := bindings[s.Shape][key]
		if !ok {
			bc = &BindingCount{Consts: s.Consts}
			bindings[s.Shape][key] = bc
		}
		bc.Freq++
	}
	out := make([]ShapeSummary, 0, len(order))
	for _, shape := range order {
		sum := byShape[shape]
		for _, bc := range bindings[shape] {
			sum.Bindings = append(sum.Bindings, *bc)
		}
		sort.Slice(sum.Bindings, func(i, j int) bool {
			if sum.Bindings[i].Freq != sum.Bindings[j].Freq {
				return sum.Bindings[i].Freq > sum.Bindings[j].Freq
			}
			return strings.Join(sum.Bindings[i].Consts, "\x00") < strings.Join(sum.Bindings[j].Consts, "\x00")
		})
		out = append(out, *sum)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Freq != out[j].Freq {
			return out[i].Freq > out[j].Freq
		}
		return out[i].Shape < out[j].Shape
	})
	return out
}
