package nested

import (
	"fmt"
	"strings"
)

// Tuple is a nested tuple: an ordered list of named values. Tuples are
// immutable by convention; operators build new tuples rather than mutating.
type Tuple struct {
	names []string
	vals  []Value
}

// NewTuple builds a tuple from parallel name/value slices.
func NewTuple(names []string, vals []Value) (Tuple, error) {
	if len(names) != len(vals) {
		return Tuple{}, fmt.Errorf("nested: %d names but %d values", len(names), len(vals))
	}
	seen := make(map[string]bool, len(names))
	for i, n := range names {
		if n == "" {
			return Tuple{}, fmt.Errorf("nested: empty attribute name at position %d", i)
		}
		if seen[n] {
			return Tuple{}, fmt.Errorf("nested: duplicate attribute %q", n)
		}
		seen[n] = true
		if vals[i] == nil {
			return Tuple{}, fmt.Errorf("nested: nil value for attribute %q (use Null)", n)
		}
	}
	return Tuple{names: names, vals: vals}, nil
}

// TrustedTuple wraps parallel name/value slices into a tuple without
// validation or copying. The caller guarantees what NewTuple would check:
// equal lengths, unique non-empty names, no nil values — and that neither
// slice is mutated afterwards. It exists for hot paths (page wrapping,
// streaming operators) that build many tuples sharing one names slice, so
// the per-tuple cost is a single value-slice allocation.
func TrustedTuple(names []string, vals []Value) Tuple {
	return Tuple{names: names, vals: vals}
}

// MustTuple is NewTuple that panics on error.
func MustTuple(names []string, vals []Value) Tuple {
	t, err := NewTuple(names, vals)
	if err != nil {
		panic(err)
	}
	return t
}

// T builds a tuple from alternating name, value pairs:
// T("Name", TextValue("x"), "ToDept", LinkValue("u1")). It panics on
// malformed input; intended for generators and tests.
func T(pairs ...any) Tuple {
	if len(pairs)%2 != 0 {
		panic("nested.T: odd number of arguments")
	}
	names := make([]string, 0, len(pairs)/2)
	vals := make([]Value, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("nested.T: argument %d is not a string name", i))
		}
		val, ok := pairs[i+1].(Value)
		if !ok {
			panic(fmt.Sprintf("nested.T: argument %d is not a Value", i+1))
		}
		names = append(names, name)
		vals = append(vals, val)
	}
	return MustTuple(names, vals)
}

// Arity returns the number of attributes.
func (t Tuple) Arity() int { return len(t.names) }

// Names returns the attribute names in order. The slice must not be mutated.
func (t Tuple) Names() []string { return t.names }

// Get returns the value of the named attribute and whether it exists.
func (t Tuple) Get(name string) (Value, bool) {
	for i, n := range t.names {
		if n == name {
			return t.vals[i], true
		}
	}
	return nil, false
}

// MustGet returns the value of the named attribute, panicking if absent.
// Operators validate attribute existence against the schema before
// evaluation, so a miss here is a programming error.
func (t Tuple) MustGet(name string) Value {
	v, ok := t.Get(name)
	if !ok {
		panic(fmt.Sprintf("nested: attribute %q not in tuple %v", name, t.names))
	}
	return v
}

// At returns the i-th value.
func (t Tuple) At(i int) Value { return t.vals[i] }

// With returns a copy of the tuple extended with (or overriding) the named
// attribute.
func (t Tuple) With(name string, v Value) Tuple {
	for i, n := range t.names {
		if n == name {
			vals := append(append([]Value(nil), t.vals[:i]...), v)
			vals = append(vals, t.vals[i+1:]...)
			return Tuple{names: t.names, vals: vals}
		}
	}
	names := append(append([]string(nil), t.names...), name)
	vals := append(append([]Value(nil), t.vals...), v)
	return Tuple{names: names, vals: vals}
}

// Without returns a copy of the tuple with the named attribute removed.
func (t Tuple) Without(name string) Tuple {
	for i, n := range t.names {
		if n == name {
			names := append(append([]string(nil), t.names[:i]...), t.names[i+1:]...)
			vals := append(append([]Value(nil), t.vals[:i]...), t.vals[i+1:]...)
			return Tuple{names: names, vals: vals}
		}
	}
	return t
}

// Project returns a tuple containing only the named attributes, in the given
// order.
func (t Tuple) Project(names []string) (Tuple, error) {
	vals := make([]Value, len(names))
	for i, n := range names {
		v, ok := t.Get(n)
		if !ok {
			return Tuple{}, fmt.Errorf("nested: project on missing attribute %q", n)
		}
		vals[i] = v
	}
	return Tuple{names: names, vals: vals}, nil
}

// Rename returns a copy of the tuple with attributes renamed per the map.
// Attributes absent from the map keep their names.
func (t Tuple) Rename(m map[string]string) Tuple {
	names := make([]string, len(t.names))
	for i, n := range t.names {
		if nn, ok := m[n]; ok {
			names[i] = nn
		} else {
			names[i] = n
		}
	}
	return Tuple{names: names, vals: t.vals}
}

// Concat returns the concatenation of two tuples. Attribute sets must be
// disjoint.
func (t Tuple) Concat(u Tuple) (Tuple, error) {
	names := append(append([]string(nil), t.names...), u.names...)
	vals := append(append([]Value(nil), t.vals...), u.vals...)
	return NewTuple(names, vals)
}

// Key returns a canonical string form of the tuple, independent of attribute
// order, usable as a map key for set semantics.
func (t Tuple) Key() string {
	b := getKeyBuf()
	*b = t.appendKey(*b)
	s := string(*b)
	putKeyBuf(b)
	return s
}

// appendKey appends the canonical form to dst and returns the extended
// slice, so callers holding a reusable buffer can perform map lookups via
// string(buf) without materializing the key.
func (t Tuple) appendKey(dst []byte) []byte {
	var stack [16]int
	return t.appendKeyIn(dst, canonicalOrder(t.names, stack[:0]))
}

// appendKeyIn is appendKey with the canonical attribute order of t's names
// already computed (by canonicalOrder).
func (t Tuple) appendKeyIn(dst []byte, order []int) []byte {
	for _, i := range order {
		dst = append(dst, t.names[i]...)
		dst = append(dst, '=')
		dst = t.vals[i].appendKey(dst)
		dst = append(dst, '|')
	}
	return dst
}

// canonicalOrder appends to idx the positions of names sorted by name: the
// attribute order of canonical keys, independent of the tuple's own order.
func canonicalOrder(names []string, idx []int) []int {
	for i := range names {
		idx = append(idx, i)
	}
	// Insertion sort by name: tuples are small.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && names[idx[j-1]] > names[idx[j]]; j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
	return idx
}

// keyOrder caches the canonical attribute order of the last names slice a
// relation keyed: the tuples of one relation overwhelmingly share one
// names slice, so the order is sorted once, not once per tuple.
type keyOrder struct {
	names []string
	idx   []int
}

func (o *keyOrder) of(names []string) []int {
	if o.idx == nil || !sameNames(o.names, names) {
		o.names, o.idx = names, canonicalOrder(names, make([]int, 0, len(names)))
	}
	return o.idx
}

// Equal reports whether two tuples have the same attributes with equal
// values, ignoring attribute order.
func (t Tuple) Equal(u Tuple) bool {
	if len(t.names) != len(u.names) {
		return false
	}
	return t.Key() == u.Key()
}

// String renders the tuple as "<A1: v1, ..., An: vn>".
func (t Tuple) String() string {
	parts := make([]string, len(t.names))
	for i, n := range t.names {
		parts[i] = n + ": " + t.vals[i].String()
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

// CheckAgainst validates the tuple against a tuple type: every field must be
// present with a conforming value, nulls only for optional fields, and no
// extra attributes.
func (t Tuple) CheckAgainst(tt *TupleType) error {
	if len(t.names) != len(tt.Fields) {
		return fmt.Errorf("nested: tuple has %d attributes, type has %d", len(t.names), len(tt.Fields))
	}
	for _, f := range tt.Fields {
		v, ok := t.Get(f.Name)
		if !ok {
			return fmt.Errorf("nested: missing attribute %q", f.Name)
		}
		if v.IsNull() {
			if !f.Optional {
				return fmt.Errorf("nested: null value for non-optional attribute %q", f.Name)
			}
			continue
		}
		if !ConformsTo(v, f.Type) {
			return fmt.Errorf("nested: attribute %q: value %s does not conform to type %s", f.Name, v, f.Type)
		}
	}
	return nil
}
