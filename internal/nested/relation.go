package nested

import (
	"fmt"
	"slices"
	"strings"
)

// Relation is a nested relation: a set of tuples over a common tuple type.
// The paper assumes page-relations are in Partitioned Normal Form [27]; the
// operators below preserve set semantics (no duplicate tuples).
type Relation struct {
	typ    *TupleType
	tuples []Tuple
	// keys[i] is tuples[i]'s canonical key, rendered once by Insert: the
	// set-semantics index and the canonical order of Sorted share it.
	keys  []string
	index map[string]bool // tuple keys, for set semantics
	order keyOrder
}

// NewRelation creates an empty relation with the given tuple type.
func NewRelation(tt *TupleType) *Relation {
	return &Relation{typ: tt, index: make(map[string]bool)}
}

// FromTuples creates a relation with the given type and inserts each tuple,
// validating it against the type.
func FromTuples(tt *TupleType, tuples ...Tuple) (*Relation, error) {
	r := NewRelation(tt)
	for _, t := range tuples {
		if err := t.CheckAgainst(tt); err != nil {
			return nil, err
		}
		r.Insert(t)
	}
	return r, nil
}

// Type returns the relation's tuple type. It may be nil for relations built
// by untyped operators.
func (r *Relation) Type() *TupleType { return r.typ }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuples returns the underlying tuple slice. It must not be mutated.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Insert adds a tuple unless an equal tuple is already present. It reports
// whether the tuple was added. The duplicate check renders the canonical
// key into a pooled buffer and looks it up via string(buf), so only the
// first occurrence of a key pays a string allocation, and that one string
// is both the index entry and the tuple's sort key.
func (r *Relation) Insert(t Tuple) bool {
	b := getKeyBuf()
	*b = t.appendKeyIn(*b, r.order.of(t.names))
	added := false
	if !r.index[string(*b)] {
		k := string(*b)
		r.index[k] = true
		r.keys = append(r.keys, k)
		r.tuples = append(r.tuples, t)
		added = true
	}
	putKeyBuf(b)
	return added
}

// Contains reports whether an equal tuple is present. Like every read of a
// relation it writes nothing, so concurrent readers are safe.
func (r *Relation) Contains(t Tuple) bool {
	b := getKeyBuf()
	*b = t.appendKey(*b)
	ok := r.index[string(*b)]
	putKeyBuf(b)
	return ok
}

// Names returns the attribute names: from the type if present, otherwise
// from the first tuple.
func (r *Relation) Names() []string {
	if r.typ != nil {
		return r.typ.Names()
	}
	if len(r.tuples) > 0 {
		return r.tuples[0].Names()
	}
	return nil
}

// Select returns the tuples satisfying the predicate.
func (r *Relation) Select(p Predicate) (*Relation, error) {
	out := NewRelation(r.typ)
	for _, t := range r.tuples {
		ok, err := p.Eval(t)
		if err != nil {
			return nil, err
		}
		if ok {
			out.Insert(t)
		}
	}
	return out, nil
}

// Project returns the relation projected on the given attributes, with
// duplicates removed (set semantics).
func (r *Relation) Project(attrs []string) (*Relation, error) {
	var tt *TupleType
	if r.typ != nil {
		fields := make([]Field, len(attrs))
		for i, a := range attrs {
			f, ok := r.typ.Field(a)
			if !ok {
				return nil, fmt.Errorf("nested: projection on missing attribute %q", a)
			}
			fields[i] = f
		}
		var err error
		tt, err = NewTupleType(fields...)
		if err != nil {
			return nil, err
		}
	}
	out := NewRelation(tt)
	for _, t := range r.tuples {
		pt, err := t.Project(attrs)
		if err != nil {
			return nil, err
		}
		out.Insert(pt)
	}
	return out, nil
}

// Rename returns the relation with attributes renamed per the map.
func (r *Relation) Rename(m map[string]string) (*Relation, error) {
	var tt *TupleType
	if r.typ != nil {
		fields := make([]Field, len(r.typ.Fields))
		for i, f := range r.typ.Fields {
			if nn, ok := m[f.Name]; ok {
				f.Name = nn
			}
			fields[i] = f
		}
		var err error
		tt, err = NewTupleType(fields...)
		if err != nil {
			return nil, err
		}
	}
	out := NewRelation(tt)
	for _, t := range r.tuples {
		out.Insert(t.Rename(m))
	}
	return out, nil
}

// EqCond is an equi-join condition Left = Right, where Left names an
// attribute of the left operand and Right one of the right operand.
type EqCond struct {
	Left  string
	Right string
}

// String renders the condition.
func (c EqCond) String() string { return c.Left + "=" + c.Right }

// Join computes the equi-join of two relations on the given conditions.
// With no conditions it is the cartesian product. Attribute sets must be
// disjoint (the algebra qualifies attributes with aliases before joining).
// Join uses a hash join on the condition attributes.
func (r *Relation) Join(s *Relation, conds []EqCond) (*Relation, error) {
	var tt *TupleType
	if r.typ != nil && s.typ != nil {
		fields := append(append([]Field(nil), r.typ.Fields...), s.typ.Fields...)
		var err error
		tt, err = NewTupleType(fields...)
		if err != nil {
			return nil, err
		}
	}
	out := NewRelation(tt)
	if len(conds) == 0 {
		for _, t := range r.tuples {
			for _, u := range s.tuples {
				c, err := t.Concat(u)
				if err != nil {
					return nil, err
				}
				out.Insert(c)
			}
		}
		return out, nil
	}
	// Build side: hash the smaller relation on its condition attributes.
	buildLeft := r.Len() < s.Len()
	build, probe := s, r
	if buildLeft {
		build, probe = r, s
	}
	h := NewHashJoiner(conds, buildLeft)
	for _, t := range build.tuples {
		if err := h.Build(t); err != nil {
			return nil, err
		}
	}
	var buf []Tuple
	for _, t := range probe.tuples {
		joined, err := h.ProbeAppend(t, buf[:0])
		if err != nil {
			return nil, err
		}
		for _, c := range joined {
			out.Insert(c)
		}
		buf = joined
	}
	return out, nil
}

// appendJoinKey appends the join key of t over attrs to dst. hasNull
// reports that a condition attribute was null (such tuples never join).
func appendJoinKey(dst []byte, t Tuple, attrs []string) (key []byte, hasNull bool, err error) {
	for _, a := range attrs {
		v, ok := t.Get(a)
		if !ok {
			return dst, false, fmt.Errorf("nested: join on missing attribute %q", a)
		}
		if v.IsNull() {
			return dst, true, nil
		}
		dst = v.appendKey(dst)
		dst = append(dst, '|')
	}
	return dst, false, nil
}

// Unnest implements the unnest operator μ_A (written R ◦ A in the paper):
// each tuple is replaced by one tuple per element of its list attribute A,
// with the element's fields promoted to top level under names
// "A.field". Tuples whose A is null or empty produce no output, matching the
// semantics of navigation (there is nothing to navigate).
func (r *Relation) Unnest(attr string) (*Relation, error) {
	var tt *TupleType
	var elemFields []Field
	if r.typ != nil {
		f, ok := r.typ.Field(attr)
		if !ok {
			return nil, fmt.Errorf("nested: unnest on missing attribute %q", attr)
		}
		if f.Type.Kind != KindList {
			return nil, fmt.Errorf("nested: unnest on non-list attribute %q of type %s", attr, f.Type)
		}
		elemFields = f.Type.Elem
		fields := make([]Field, 0, len(r.typ.Fields)-1+len(elemFields))
		for _, g := range r.typ.Fields {
			if g.Name != attr {
				fields = append(fields, g)
			}
		}
		for _, g := range elemFields {
			g.Name = attr + "." + g.Name
			fields = append(fields, g)
		}
		var err error
		tt, err = NewTupleType(fields...)
		if err != nil {
			return nil, err
		}
	}
	out := NewRelation(tt)
	var u Unnester
	for _, t := range r.tuples {
		rows, err := u.Unnest(t, attr, nil)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			out.Insert(row)
		}
	}
	return out, nil
}

// Nest groups tuples by all attributes except those listed, collecting the
// listed attributes into a list attribute named as given. It is the inverse
// of Unnest on PNF relations and is used by the materialized-view store.
func (r *Relation) Nest(listName string, elemAttrs []string) (*Relation, error) {
	elemSet := make(map[string]bool, len(elemAttrs))
	for _, a := range elemAttrs {
		elemSet[a] = true
	}
	var groupAttrs []string
	for _, n := range r.Names() {
		if !elemSet[n] {
			groupAttrs = append(groupAttrs, n)
		}
	}
	type group struct {
		base Tuple
		list ListValue
	}
	var order []string
	groups := make(map[string]*group)
	for _, t := range r.tuples {
		base, err := t.Project(groupAttrs)
		if err != nil {
			return nil, err
		}
		elem, err := t.Project(elemAttrs)
		if err != nil {
			return nil, err
		}
		// Strip the "List." prefix convention if present.
		k := base.Key()
		g, ok := groups[k]
		if !ok {
			g = &group{base: base}
			groups[k] = g
			order = append(order, k)
		}
		g.list = append(g.list, elem)
	}
	out := NewRelation(nil)
	for _, k := range order {
		g := groups[k]
		out.Insert(g.base.With(listName, g.list))
	}
	return out, nil
}

// Union returns the set union of two relations with the same attribute set.
func (r *Relation) Union(s *Relation) (*Relation, error) {
	if r.typ != nil && s.typ != nil && !r.typ.SameFieldSet(s.typ) {
		return nil, fmt.Errorf("nested: union of incompatible types %s and %s", r.typ, s.typ)
	}
	out := NewRelation(r.typ)
	for _, t := range r.tuples {
		out.Insert(t)
	}
	for _, t := range s.tuples {
		out.Insert(t)
	}
	return out, nil
}

// Minus returns the set difference r − s.
func (r *Relation) Minus(s *Relation) *Relation {
	out := NewRelation(r.typ)
	for _, t := range r.tuples {
		if !s.Contains(t) {
			out.Insert(t)
		}
	}
	return out
}

// DistinctValues returns the distinct non-null values of an attribute, in
// first-seen order.
func (r *Relation) DistinctValues(attr string) ([]Value, error) {
	seen := make(map[string]bool)
	var out []Value
	for _, t := range r.tuples {
		v, ok := t.Get(attr)
		if !ok {
			return nil, fmt.Errorf("nested: missing attribute %q", attr)
		}
		if v.IsNull() {
			continue
		}
		k := ValueKey(v)
		if !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out, nil
}

// Sorted returns the tuples ordered by their canonical keys, for
// deterministic display and golden tests. The keys are the ones Insert
// rendered, so sorting compares strings and renders nothing.
func (r *Relation) Sorted() []Tuple {
	perm := make([]int32, len(r.tuples))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int { return strings.Compare(r.keys[a], r.keys[b]) })
	out := make([]Tuple, len(perm))
	for i, j := range perm {
		out[i] = r.tuples[j]
	}
	return out
}

// Equal reports whether two relations contain the same set of tuples.
func (r *Relation) Equal(s *Relation) bool {
	if r.Len() != s.Len() {
		return false
	}
	for _, t := range r.tuples {
		if !s.Contains(t) {
			return false
		}
	}
	return true
}

// String renders the relation, one tuple per line, in canonical order.
func (r *Relation) String() string {
	var sb strings.Builder
	for _, t := range r.Sorted() {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
