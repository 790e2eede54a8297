// Package stats implements the quantitative site parameters of §6.2 of the
// paper: page-scheme cardinalities |P|, average list fan-outs |L|, distinct
// attribute counts c_A and join selectivities. The paper assumes they "have
// been initially estimated exploring the site by means of a tool such as
// WebSQL"; here a crawler walks the simulated site once (downloading and
// wrapping every reachable page) and derives them exactly.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
)

// Stats holds the collected parameters, keyed by scheme name and by
// "Scheme.Attr.Path" strings.
type Stats struct {
	// Card is |P|: the number of pages per page-scheme.
	Card map[string]float64
	// Fanout is |L|: the average number of elements of a list attribute per
	// occurrence of its parent, keyed by attribute reference
	// ("DeptPage.ProfList").
	Fanout map[string]float64
	// Distinct is c_A: the number of distinct non-null values of an
	// attribute path across the page-relation, keyed by attribute
	// reference ("CoursePage.Session", "DeptPage.ProfList.ToProf").
	Distinct map[string]float64
	// Occurrences is |μ_A(P)|: the total number of value occurrences of an
	// attribute path across the page-relation (equals Card for top-level
	// mono-valued attributes).
	Occurrences map[string]float64
	// JoinSel optionally overrides the estimated join selectivity for a
	// column pair, keyed by "Ref1|Ref2" with the two refs sorted.
	JoinSel map[string]float64
	// PageBytes is the average HTML size of a page per page-scheme, for
	// the byte-weighted cost model (§6.2 footnote: page sizes can refine
	// the cost model). Zero when unknown.
	PageBytes map[string]float64
}

// New returns empty statistics.
func New() *Stats {
	return &Stats{
		Card:        make(map[string]float64),
		Fanout:      make(map[string]float64),
		Distinct:    make(map[string]float64),
		Occurrences: make(map[string]float64),
		JoinSel:     make(map[string]float64),
		PageBytes:   make(map[string]float64),
	}
}

// SchemeCard returns |P| for a page-scheme, defaulting to 1.
func (s *Stats) SchemeCard(scheme string) float64 {
	if v, ok := s.Card[scheme]; ok {
		return v
	}
	return 1
}

// AvgPageBytes returns the average page size of a page-scheme in bytes,
// defaulting to 1 so the byte-weighted cost degrades to page counting when
// sizes are unknown.
func (s *Stats) AvgPageBytes(scheme string) float64 {
	if v, ok := s.PageBytes[scheme]; ok && v > 0 {
		return v
	}
	return 1
}

// FanoutOf returns |L| for a list attribute reference, defaulting to 1.
func (s *Stats) FanoutOf(ref adm.AttrRef) float64 {
	if v, ok := s.Fanout[ref.String()]; ok {
		return v
	}
	return 1
}

// DistinctOf returns c_A for an attribute reference; when unknown it falls
// back to the total occurrence count, then to 1.
func (s *Stats) DistinctOf(ref adm.AttrRef) float64 {
	if v, ok := s.Distinct[ref.String()]; ok {
		return v
	}
	if v, ok := s.Occurrences[ref.String()]; ok {
		return v
	}
	return 1
}

// Selectivity returns s_A = 1/c_A for an attribute reference (§6.2 (e)).
func (s *Stats) Selectivity(ref adm.AttrRef) float64 {
	d := s.DistinctOf(ref)
	if d <= 0 {
		return 1
	}
	return 1 / d
}

// SetJoinSel overrides the join selectivity for a pair of attribute
// references (§6.2 (d)).
func (s *Stats) SetJoinSel(a, b adm.AttrRef, sel float64) {
	s.JoinSel[joinKey(a, b)] = sel
}

// JoinSelectivity returns the override for a pair, if set.
func (s *Stats) JoinSelectivity(a, b adm.AttrRef) (float64, bool) {
	if len(s.JoinSel) == 0 {
		return 0, false
	}
	v, ok := s.JoinSel[joinKey(a, b)]
	return v, ok
}

func joinKey(a, b adm.AttrRef) string {
	ka, kb := a.String(), b.String()
	if ka > kb {
		ka, kb = kb, ka
	}
	return ka + "|" + kb
}

// Snapshot is a frozen copy of the statistics, taken when a derived
// artifact (a cached plan) is produced, so later drift can be measured.
type Snapshot struct {
	maps []map[string]float64
}

// Snapshot captures the current statistics.
func (s *Stats) Snapshot() Snapshot {
	src := []map[string]float64{s.Card, s.Fanout, s.Distinct, s.Occurrences, s.JoinSel, s.PageBytes}
	out := make([]map[string]float64, len(src))
	for i, m := range src {
		c := make(map[string]float64, len(m))
		for k, v := range m {
			c[k] = v
		}
		out[i] = c
	}
	return Snapshot{maps: out}
}

// DriftFrom returns the maximum relative change of any parameter since the
// snapshot: |new−old| / max(|old|, 1), with parameters present on only one
// side compared against zero. A plan cache invalidates entries whose
// snapshot has drifted past its threshold, since the cost ranking that
// selected the plan may no longer hold.
func (s *Stats) DriftFrom(snap Snapshot) float64 {
	cur := []map[string]float64{s.Card, s.Fanout, s.Distinct, s.Occurrences, s.JoinSel, s.PageBytes}
	if len(snap.maps) != len(cur) {
		return math.Inf(1)
	}
	drift := 0.0
	rel := func(old, new float64) float64 {
		d := math.Abs(new - old)
		if d == 0 {
			return 0
		}
		den := math.Abs(old)
		if den < 1 {
			den = 1
		}
		return d / den
	}
	for i, m := range cur {
		old := snap.maps[i]
		for k, v := range m {
			if r := rel(old[k], v); r > drift {
				drift = r
			}
		}
		for k, v := range old {
			if _, ok := m[k]; !ok {
				if r := rel(v, 0); r > drift {
					drift = r
				}
			}
		}
	}
	return drift
}

// CollectInstance derives exact statistics from an ADM instance. It is the
// offline equivalent of crawling the site.
func CollectInstance(in *adm.Instance) *Stats {
	s := New()
	for _, name := range in.Scheme.PageNames() {
		rel := in.Relation(name)
		s.Card[name] = float64(rel.Len())
		ps := in.Scheme.Page(name)
		collectFields(s, name, nil, ps.Attrs, rel.Tuples(), float64(rel.Len()))
	}
	return s
}

// collectFields accumulates occurrence/distinct/fanout statistics for every
// attribute path of a page-scheme. parentOcc is the number of occurrences
// of the parent path (pages for top level, list elements below).
func collectFields(s *Stats, scheme string, prefix adm.Path, fields []nested.Field, tuples []nested.Tuple, parentOcc float64) {
	for _, f := range fields {
		path := append(append(adm.Path(nil), prefix...), f.Name)
		ref := adm.AttrRef{Scheme: scheme, Path: path}
		key := ref.String()
		switch f.Type.Kind {
		case nested.KindList:
			var elems []nested.Tuple
			total := 0.0
			for _, t := range tuples {
				for _, v := range collectPathLists(t, path) {
					total += float64(len(v))
					elems = append(elems, v...)
				}
			}
			s.Occurrences[key] = total
			if parentOcc > 0 {
				s.Fanout[key] = total / parentOcc
			}
			// Element tuples are indexed relative to the page tuple set, so
			// recurse with the flattened elements and the element paths.
			collectElemFields(s, scheme, path, f.Type.Elem, elems)
		default:
			seen := make(map[string]bool)
			occ := 0.0
			for _, t := range tuples {
				for _, v := range adm.PathValues(t, path) {
					occ++
					seen[nested.ValueKey(v)] = true
				}
			}
			s.Occurrences[key] = occ
			s.Distinct[key] = float64(len(seen))
		}
	}
}

// collectElemFields handles attributes nested inside list elements, where
// the "tuples" are the flattened element tuples and paths are relative to
// the page.
func collectElemFields(s *Stats, scheme string, prefix adm.Path, fields []nested.Field, elems []nested.Tuple) {
	for _, f := range fields {
		path := append(append(adm.Path(nil), prefix...), f.Name)
		ref := adm.AttrRef{Scheme: scheme, Path: path}
		key := ref.String()
		switch f.Type.Kind {
		case nested.KindList:
			var sub []nested.Tuple
			total := 0.0
			for _, e := range elems {
				v, ok := e.Get(f.Name)
				if !ok || v.IsNull() {
					continue
				}
				lv := v.(nested.ListValue)
				total += float64(len(lv))
				sub = append(sub, lv...)
			}
			s.Occurrences[key] = total
			if n := float64(len(elems)); n > 0 {
				s.Fanout[key] = total / n
			}
			collectElemFields(s, scheme, path, f.Type.Elem, sub)
		default:
			seen := make(map[string]bool)
			occ := 0.0
			for _, e := range elems {
				v, ok := e.Get(f.Name)
				if !ok || v.IsNull() {
					continue
				}
				occ++
				seen[nested.ValueKey(v)] = true
			}
			s.Occurrences[key] = occ
			s.Distinct[key] = float64(len(seen))
		}
	}
}

// collectPathLists returns the list values found at a list-typed path of a
// page tuple (descending through enclosing lists).
func collectPathLists(t nested.Tuple, path adm.Path) []nested.ListValue {
	v, ok := t.Get(path[0])
	if !ok || v.IsNull() {
		return nil
	}
	if len(path) == 1 {
		if lv, ok := v.(nested.ListValue); ok {
			return []nested.ListValue{lv}
		}
		return nil
	}
	lv, ok := v.(nested.ListValue)
	if !ok {
		return nil
	}
	var out []nested.ListValue
	for _, e := range lv {
		out = append(out, collectPathLists(e, path[1:])...)
	}
	return out
}

// String renders the statistics in a stable, human-readable form.
func (s *Stats) String() string {
	var sb strings.Builder
	schemes := make([]string, 0, len(s.Card))
	for k := range s.Card {
		schemes = append(schemes, k)
	}
	sort.Strings(schemes)
	for _, k := range schemes {
		fmt.Fprintf(&sb, "|%s| = %.0f\n", k, s.Card[k])
	}
	keys := make([]string, 0, len(s.Fanout))
	for k := range s.Fanout {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "fanout(%s) = %.2f\n", k, s.Fanout[k])
	}
	keys = keys[:0]
	for k := range s.Distinct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "distinct(%s) = %.0f\n", k, s.Distinct[k])
	}
	return sb.String()
}
