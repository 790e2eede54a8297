package nested

import (
	"fmt"
	"strings"
)

// Predicate is a boolean condition on a tuple, used by selection.
type Predicate interface {
	// Eval reports whether the tuple satisfies the predicate.
	Eval(t Tuple) (bool, error)
	// Attrs appends the attribute names the predicate reads.
	Attrs(dst []string) []string
	// String renders the predicate in the paper's σ-subscript style.
	String() string
}

// CmpOp is a comparison operator for scalar predicates.
type CmpOp int

// Comparison operators. Conjunctive queries in the paper use only equality;
// the richer set is provided for the practical query language.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator symbol.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "≠"
	case OpLt:
		return "<"
	case OpLe:
		return "≤"
	case OpGt:
		return ">"
	case OpGe:
		return "≥"
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

func cmpHolds(op CmpOp, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	default:
		return false
	}
}

// holds reports whether a op b for two non-null values. Equality of two
// scalars — every selection a conjunctive query makes — compares their
// strings; anything else goes through CompareValues.
func holds(op CmpOp, a, b Value) bool {
	if op == OpEq || op == OpNe {
		if as, ok := scalarString(a); ok {
			if bs, ok := scalarString(b); ok {
				return (a.Kind() == b.Kind() && as == bs) == (op == OpEq)
			}
		}
	}
	return cmpHolds(op, CompareValues(a, b))
}

// ConstPred compares an attribute against a constant: A op 'v'.
// Comparisons against null are false except A ≠ v, which is false too
// (three-valued logic collapsed to false, as usual for conjunctive queries).
type ConstPred struct {
	Attr string
	Op   CmpOp
	Val  Value
}

// Eval implements Predicate.
func (p ConstPred) Eval(t Tuple) (bool, error) {
	v, ok := t.Get(p.Attr)
	if !ok {
		return false, fmt.Errorf("nested: selection on missing attribute %q", p.Attr)
	}
	if v.IsNull() || p.Val.IsNull() {
		return false, nil
	}
	return holds(p.Op, v, p.Val), nil
}

// Attrs implements Predicate.
func (p ConstPred) Attrs(dst []string) []string { return append(dst, p.Attr) }

// String implements Predicate.
func (p ConstPred) String() string {
	return fmt.Sprintf("%s%s'%s'", p.Attr, p.Op, p.Val)
}

// AttrPred compares two attributes of the same tuple: A op B.
type AttrPred struct {
	Left  string
	Op    CmpOp
	Right string
}

// Eval implements Predicate.
func (p AttrPred) Eval(t Tuple) (bool, error) {
	l, ok := t.Get(p.Left)
	if !ok {
		return false, fmt.Errorf("nested: selection on missing attribute %q", p.Left)
	}
	r, ok := t.Get(p.Right)
	if !ok {
		return false, fmt.Errorf("nested: selection on missing attribute %q", p.Right)
	}
	if l.IsNull() || r.IsNull() {
		return false, nil
	}
	return holds(p.Op, l, r), nil
}

// Attrs implements Predicate.
func (p AttrPred) Attrs(dst []string) []string { return append(dst, p.Left, p.Right) }

// String implements Predicate.
func (p AttrPred) String() string {
	return fmt.Sprintf("%s%s%s", p.Left, p.Op, p.Right)
}

// AndPred is the conjunction of sub-predicates. An empty conjunction is true.
type AndPred []Predicate

// Eval implements Predicate.
func (p AndPred) Eval(t Tuple) (bool, error) {
	for _, sub := range p {
		ok, err := sub.Eval(t)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// Attrs implements Predicate.
func (p AndPred) Attrs(dst []string) []string {
	for _, sub := range p {
		dst = sub.Attrs(dst)
	}
	return dst
}

// String implements Predicate.
func (p AndPred) String() string {
	parts := make([]string, len(p))
	for i, sub := range p {
		parts[i] = sub.String()
	}
	return strings.Join(parts, ", ")
}

// And conjoins predicates, flattening nested conjunctions and dropping nils.
// And() with no arguments returns the empty (true) conjunction.
func And(preds ...Predicate) Predicate {
	var flat AndPred
	for _, p := range preds {
		switch q := p.(type) {
		case nil:
			continue
		case AndPred:
			flat = append(flat, q...)
		default:
			flat = append(flat, p)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return flat
}

// Eq builds the equality predicate A = 'v' for a text constant.
func Eq(attr, val string) Predicate {
	return ConstPred{Attr: attr, Op: OpEq, Val: TextValue(val)}
}
