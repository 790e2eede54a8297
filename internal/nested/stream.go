package nested

import (
	"fmt"
	"sync"
)

// This file holds streaming helpers for hot evaluation paths: operators
// that process tuples one batch at a time want to avoid re-deriving the
// output attribute names per tuple. All helpers exploit the same
// invariant: tuples flowing through one operator overwhelmingly share a
// single names slice (pages wrapped from one scheme, join outputs from one
// joiner), so name-level work can be cached per distinct input slice and
// the cached output slice shared — tuples are immutable by convention, so
// sharing is safe.

// sameNames reports whether two name slices are the same array (pointer
// identity) or element-wise equal. The pointer check makes the common case
// O(1); the content fallback keeps caches correct for equal-but-distinct
// arrays.
func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// valueChunks carves tuple value slices out of shared chunks, so an
// operator emitting many tuples pays one allocation per chunk instead of
// one per tuple. Chunks double from one tuple up to maxChunkTuples, so an
// operator that emits few tuples wastes little. Every slice it hands out is
// capacity-capped, so appending to one can never write into its
// neighbour. Not safe for concurrent use.
type valueChunks struct {
	free   []Value
	tuples int // tuples the last chunk was sized for
}

// maxChunkTuples bounds a chunk: the tuples of one chunk keep all of it
// reachable.
const maxChunkTuples = 64

// take returns an empty slice with capacity n.
func (c *valueChunks) take(n int) []Value {
	if cap(c.free)-len(c.free) < n {
		c.tuples = min(max(2*c.tuples, 1), maxChunkTuples)
		c.free = make([]Value, 0, n*c.tuples)
	}
	start := len(c.free)
	c.free = c.free[:start+n]
	return c.free[start : start : start+n]
}

// Columns is a set of attribute names an operator's output keeps. A nil
// Columns keeps every attribute.
type Columns map[string]bool

// Has reports whether the set keeps the named attribute.
func (c Columns) Has(name string) bool { return c == nil || c[name] }

// Concatenator concatenates tuples whose attribute sets are disjoint. The
// concatenated names are built and checked once per (left, right) names
// pair and shared by every tuple it builds, whose values come from shared
// chunks. Not safe for concurrent use.
type Concatenator struct {
	// Keep is the set of attributes the concatenations keep; the others
	// are dropped as each tuple is built (nil keeps all).
	Keep Columns

	left, right []string // the names pair the fields below are for
	names       []string
	li, ri      []int // kept positions of left and right; nil keeps all
	vals        valueChunks
}

// Concat returns the concatenation of t and u, like Tuple.Concat, keeping
// the attributes in Keep.
func (c *Concatenator) Concat(t, u Tuple) (Tuple, error) {
	if c.names == nil || !sameNames(c.left, t.names) || !sameNames(c.right, u.names) {
		if err := c.reshape(t.names, u.names); err != nil {
			return Tuple{}, err
		}
	}
	vals := c.vals.take(len(c.names))
	vals = appendKept(vals, t.vals, c.li)
	vals = appendKept(vals, u.vals, c.ri)
	return Tuple{names: c.names, vals: vals}, nil
}

// reshape validates the disjointness of a new (left, right) names pair
// over every attribute, kept or not, and derives the kept names and
// positions.
func (c *Concatenator) reshape(left, right []string) error {
	seen := make(map[string]bool, len(left)+len(right))
	for i, n := range append(append([]string(nil), left...), right...) {
		if n == "" {
			return fmt.Errorf("nested: empty attribute name at position %d", i)
		}
		if seen[n] {
			return fmt.Errorf("nested: duplicate attribute %q", n)
		}
		seen[n] = true
	}
	names := make([]string, 0, len(left)+len(right))
	var li, ri []int
	names, li = c.keep(names, left)
	names, ri = c.keep(names, right)
	c.left, c.right, c.names, c.li, c.ri = left, right, names, li, ri
	return nil
}

// keep appends the kept names of in to names, with their positions in in,
// or nil positions when every name is kept.
func (c *Concatenator) keep(names, in []string) ([]string, []int) {
	idx := make([]int, 0, len(in))
	for i, n := range in {
		if c.Keep.Has(n) {
			idx = append(idx, i)
			names = append(names, n)
		}
	}
	if len(idx) == len(in) {
		return names, nil
	}
	return names, idx
}

// appendKept appends vals[i] for every i in idx to dst, or all of vals when
// idx is nil.
func appendKept(dst, vals []Value, idx []int) []Value {
	if idx == nil {
		return append(dst, vals...)
	}
	for _, i := range idx {
		dst = append(dst, vals[i])
	}
	return dst
}

// Projector projects tuples onto a list of attributes, finding their
// positions once per input names slice instead of by name per tuple. The
// projected tuples share the attribute list as their names. Not safe for
// concurrent use.
type Projector struct {
	cols []string
	in   []string
	idx  []int
	vals valueChunks
}

// NewProjector creates a projector onto cols.
func NewProjector(cols []string) *Projector { return &Projector{cols: cols} }

// Apply returns t projected onto the projector's attributes, like
// Tuple.Project.
func (p *Projector) Apply(t Tuple) (Tuple, error) {
	if p.idx == nil || !sameNames(p.in, t.names) {
		idx := make([]int, len(p.cols))
		for i, c := range p.cols {
			idx[i] = indexOf(t.names, c)
			if idx[i] < 0 {
				return Tuple{}, fmt.Errorf("nested: project on missing attribute %q", c)
			}
		}
		p.in, p.idx = t.names, idx
	}
	vals := p.vals.take(len(p.idx))
	for _, i := range p.idx {
		vals = append(vals, t.vals[i])
	}
	return Tuple{names: p.cols, vals: vals}, nil
}

// Column reads one named attribute of tuples, finding its position once
// per input names slice instead of by name per tuple. Not safe for
// concurrent use.
type Column struct {
	name string
	in   []string
	i    int
}

// NewColumn creates a reader of the named attribute.
func NewColumn(name string) *Column { return &Column{name: name, i: -1} }

// Get returns t's value of the attribute and whether t has it, like
// Tuple.Get.
func (c *Column) Get(t Tuple) (Value, bool) {
	if c.in == nil || !sameNames(c.in, t.names) {
		c.in, c.i = t.names, indexOf(t.names, c.name)
	}
	if c.i < 0 {
		return nil, false
	}
	return t.vals[c.i], true
}

func indexOf(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

// Qualifier prefixes every attribute name of a tuple with "alias.",
// sharing the value slice with the input and caching the prefixed names
// for repeated name arrays. It replaces per-tuple Rename calls when pages
// of one scheme are qualified with a navigation alias. A Qualifier is safe
// for concurrent use (page fetches qualify concurrently).
type Qualifier struct {
	alias string

	mu  sync.Mutex
	in  []string
	out []string
}

// NewQualifier creates a qualifier for one alias.
func NewQualifier(alias string) *Qualifier { return &Qualifier{alias: alias} }

// Apply returns the tuple with every attribute renamed to "alias.name".
func (q *Qualifier) Apply(t Tuple) Tuple {
	q.mu.Lock()
	if !sameNames(q.in, t.names) {
		out := make([]string, len(t.names))
		for i, n := range t.names {
			out[i] = q.alias + "." + n
		}
		q.in, q.out = t.names, out
	}
	names := q.out
	q.mu.Unlock()
	return Tuple{names: names, vals: t.vals}
}

// Renamer applies a rename map to tuples, caching the renamed names slice
// for repeated name arrays (Tuple.Rename allocates names and consults the
// map per tuple).
type Renamer struct {
	m   map[string]string
	in  []string
	out []string
}

// NewRenamer creates a renamer for one rename map.
func NewRenamer(m map[string]string) *Renamer { return &Renamer{m: m} }

// Apply returns the tuple with attributes renamed per the map; attributes
// absent from the map keep their names.
func (r *Renamer) Apply(t Tuple) Tuple {
	if !sameNames(r.in, t.names) {
		out := make([]string, len(t.names))
		for i, n := range t.names {
			if nn, ok := r.m[n]; ok {
				out[i] = nn
			} else {
				out[i] = n
			}
		}
		r.in, r.out = t.names, out
	}
	return Tuple{names: r.out, vals: t.vals}
}

// Unnester expands list attributes tuple by tuple, sharing one output
// names slice across all rows produced while the input tuple shape and
// element shape stay the same. The zero value is ready to use; an
// Unnester is not safe for concurrent use.
type Unnester struct {
	// Keep is the set of attributes the rows keep; the others are dropped
	// as each row is built (nil keeps all).
	Keep Columns

	attr      string
	inNames   []string
	elemNames []string
	keep      []int    // kept input attributes other than attr
	elemKeep  []int    // kept element fields; nil keeps all
	rowNames  []string // kept names followed by kept "attr.field" names
	ok        bool     // the unpruned row names passed the uniqueness check
}

// Unnest appends one row per element of t's list attribute attr to dst,
// with element fields promoted to "attr.field". Null lists produce no
// rows; a missing attribute or non-list value is an error, matching
// Relation.Unnest.
func (u *Unnester) Unnest(t Tuple, attr string, dst []Tuple) ([]Tuple, error) {
	ai := -1
	for i, n := range t.names {
		if n == attr {
			ai = i
			break
		}
	}
	if ai < 0 {
		return dst, fmt.Errorf("nested: unnest on missing attribute %q", attr)
	}
	v := t.vals[ai]
	if v.IsNull() {
		return dst, nil
	}
	lv, ok := v.(ListValue)
	if !ok {
		return dst, fmt.Errorf("nested: unnest on non-list value for %q", attr)
	}
	// The rows of one list usually share one width: their values come
	// from one allocation, cut capacity-capped.
	var block []Value
	for _, elem := range lv {
		if u.attr != attr || !sameNames(u.inNames, t.names) || !sameNames(u.elemNames, elem.names) {
			u.reshape(t, attr, elem.names)
		}
		if !u.ok {
			// A prefixed element name collides with a kept attribute.
			// Fall back to the override semantics of Tuple.With.
			row := t.Without(attr)
			for i, n := range elem.names {
				row = row.With(attr+"."+n, elem.vals[i])
			}
			dst = append(dst, row)
			continue
		}
		w := len(u.rowNames)
		if cap(block)-len(block) < w {
			block = make([]Value, 0, w*len(lv))
		}
		vals := block[len(block) : len(block) : len(block)+w]
		block = block[:len(block)+w]
		vals = appendKept(vals, t.vals, u.keep)
		vals = appendKept(vals, elem.vals, u.elemKeep)
		dst = append(dst, Tuple{names: u.rowNames, vals: vals})
	}
	return dst, nil
}

// reshape recomputes the cached projection for a new (input, element)
// shape. rowNames is always a fresh slice: rows already emitted share the
// previous one.
func (u *Unnester) reshape(t Tuple, attr string, elemNames []string) {
	u.attr = attr
	u.inNames = t.names
	u.elemNames = elemNames
	u.keep = make([]int, 0, len(t.names))
	all := make([]string, 0, len(t.names)-1+len(elemNames))
	for i, n := range t.names {
		if n != attr {
			all = append(all, n)
			if u.Keep.Has(n) {
				u.keep = append(u.keep, i)
			}
		}
	}
	for _, n := range elemNames {
		all = append(all, attr+"."+n)
	}
	seen := make(map[string]bool, len(all))
	u.ok = true
	for _, n := range all {
		if seen[n] {
			u.ok = false
			break
		}
		seen[n] = true
	}
	u.rowNames, u.elemKeep = all, nil
	if u.Keep == nil {
		return
	}
	rowNames := make([]string, 0, len(all))
	for _, i := range u.keep {
		rowNames = append(rowNames, t.names[i])
	}
	elemKeep := make([]int, 0, len(elemNames))
	for j, n := range elemNames {
		if u.Keep.Has(attr + "." + n) {
			elemKeep = append(elemKeep, j)
			rowNames = append(rowNames, attr+"."+n)
		}
	}
	u.rowNames = rowNames
	if len(elemKeep) < len(elemNames) {
		u.elemKeep = elemKeep
	}
}
