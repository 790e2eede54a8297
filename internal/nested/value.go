package nested

import (
	"bytes"
	"sort"
	"strconv"
	"strings"
)

// Value is a runtime value of some web type. The concrete representations
// are TextValue, ImageValue, LinkValue, ListValue and NullValue.
type Value interface {
	// Kind reports the kind of the value's type.
	Kind() Kind
	// IsNull reports whether the value is the null value.
	IsNull() bool
	// String renders the value for display.
	String() string
	// appendKey appends a canonical form used for hashing and comparison
	// to dst and returns the extended slice, in the style of
	// strconv.AppendInt. Append-based keys let the hot path build keys in
	// reusable buffers instead of one strings.Builder per key.
	appendKey(dst []byte) []byte
}

// appendLenPrefixed appends "<tag><len>:<s>" — a self-delimiting encoding,
// so concatenated keys cannot collide across value boundaries.
func appendLenPrefixed(dst []byte, tag byte, s string) []byte {
	dst = append(dst, tag)
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, ':')
	return append(dst, s...)
}

// TextValue is a value of the text base type.
type TextValue string

// Kind implements Value.
func (TextValue) Kind() Kind { return KindText }

// IsNull implements Value.
func (TextValue) IsNull() bool { return false }

// String implements Value.
func (v TextValue) String() string { return string(v) }

func (v TextValue) appendKey(dst []byte) []byte {
	return appendLenPrefixed(dst, 't', string(v))
}

// ImageValue is a value of the image base type; it carries the image source
// reference.
type ImageValue string

// Kind implements Value.
func (ImageValue) Kind() Kind { return KindImage }

// IsNull implements Value.
func (ImageValue) IsNull() bool { return false }

// String implements Value.
func (v ImageValue) String() string { return "img:" + string(v) }

func (v ImageValue) appendKey(dst []byte) []byte {
	return appendLenPrefixed(dst, 'i', string(v))
}

// LinkValue is a value of a link type: a reference (URL) to another page.
// Anchors are modeled as separate text attributes (§3.1 of the paper).
type LinkValue string

// Kind implements Value.
func (LinkValue) Kind() Kind { return KindLink }

// IsNull implements Value.
func (LinkValue) IsNull() bool { return false }

// String implements Value.
func (v LinkValue) String() string { return string(v) }

func (v LinkValue) appendKey(dst []byte) []byte {
	return appendLenPrefixed(dst, 'l', string(v))
}

// NullValue is the null value generated by optional attributes.
type NullValue struct{}

// Null is the canonical null value.
var Null = NullValue{}

// Kind implements Value; nulls report the text kind but compare unequal to
// every non-null value.
func (NullValue) Kind() Kind { return KindText }

// IsNull implements Value.
func (NullValue) IsNull() bool { return true }

// String implements Value.
func (NullValue) String() string { return "⊥" }

func (NullValue) appendKey(dst []byte) []byte { return append(dst, 'n') }

// ListValue is a value of a list type: a set of component tuples. Order is
// preserved for display but ignored by comparison, per §3.1 ("we blur the
// distinction between lists and sets").
type ListValue []Tuple

// Kind implements Value.
func (ListValue) Kind() Kind { return KindList }

// IsNull implements Value.
func (ListValue) IsNull() bool { return false }

// String implements Value.
func (v ListValue) String() string {
	parts := make([]string, len(v))
	for i, t := range v {
		parts[i] = t.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

func (v ListValue) appendKey(dst []byte) []byte {
	keys := make([]string, len(v))
	for i, t := range v {
		keys[i] = t.Key()
	}
	sort.Strings(keys)
	dst = append(dst, 'L')
	dst = strconv.AppendInt(dst, int64(len(v)), 10)
	dst = append(dst, '{')
	for _, k := range keys {
		dst = append(dst, k...)
		dst = append(dst, ';')
	}
	return append(dst, '}')
}

// scalarString returns the string a text, image or link value carries.
func scalarString(v Value) (string, bool) {
	switch x := v.(type) {
	case TextValue:
		return string(x), true
	case ImageValue:
		return string(x), true
	case LinkValue:
		return string(x), true
	}
	return "", false
}

// ValueEqual reports equality of two values. Nulls equal only nulls; lists
// compare as sets of tuples.
func ValueEqual(a, b Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	ba := getKeyBuf()
	bb := getKeyBuf()
	*ba = a.appendKey(*ba)
	*bb = b.appendKey(*bb)
	eq := bytes.Equal(*ba, *bb)
	putKeyBuf(ba)
	putKeyBuf(bb)
	return eq
}

// ValueKey returns a canonical string form of a value, usable as a map key.
func ValueKey(v Value) string {
	if v == nil {
		return "nil"
	}
	b := getKeyBuf()
	*b = v.appendKey(*b)
	s := string(*b)
	putKeyBuf(b)
	return s
}

// CompareValues orders two values for deterministic sorting: nulls first,
// then by kind, then by canonical key.
func CompareValues(a, b Value) int {
	an, bn := a == nil || a.IsNull(), b == nil || b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if a.Kind() != b.Kind() {
		return int(a.Kind()) - int(b.Kind())
	}
	ka, kb := getKeyBuf(), getKeyBuf()
	*ka = a.appendKey(*ka)
	*kb = b.appendKey(*kb)
	c := bytes.Compare(*ka, *kb)
	putKeyBuf(ka)
	putKeyBuf(kb)
	return c
}

// ConformsTo reports whether value v is a valid instance of type t,
// descending into lists. Null conforms to any type (optionality is checked
// at the tuple level).
func ConformsTo(v Value, t Type) bool {
	if v == nil {
		return false
	}
	if v.IsNull() {
		return true
	}
	switch t.Kind {
	case KindText:
		_, ok := v.(TextValue)
		return ok
	case KindImage:
		_, ok := v.(ImageValue)
		return ok
	case KindLink:
		_, ok := v.(LinkValue)
		return ok
	case KindList:
		lv, ok := v.(ListValue)
		if !ok {
			return false
		}
		et := &TupleType{Fields: t.Elem}
		for _, tup := range lv {
			if err := tup.CheckAgainst(et); err != nil {
				return false
			}
		}
		return true
	default:
		return false
	}
}
