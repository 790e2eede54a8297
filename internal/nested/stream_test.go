package nested

import (
	"fmt"
	"sort"
	"testing"
)

// TestSortedUsesInsertKeys: Sorted is the canonical-key order, over tuples
// of several attribute orders, and renders no key to get it — the keys
// Insert rendered are reused.
func TestSortedUsesInsertKeys(t *testing.T) {
	r := NewRelation(nil)
	ab, ba := []string{"A", "B"}, []string{"B", "A"}
	for i := 0; i < 40; i++ {
		x, y := TextValue(fmt.Sprint(i%7)), TextValue(fmt.Sprint(i))
		if i%3 == 0 {
			r.Insert(TrustedTuple(ba, []Value{y, x}))
		} else {
			r.Insert(TrustedTuple(ab, []Value{x, y}))
		}
	}
	want := append([]Tuple(nil), r.Tuples()...)
	sort.Slice(want, func(i, j int) bool { return want[i].Key() < want[j].Key() })
	got := r.Sorted()
	for i := range want {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("position %d: %s, want %s", i, got[i], want[i])
		}
	}
	// The permutation and the result slice: nothing per tuple.
	if n := testing.AllocsPerRun(20, func() { r.Sorted() }); n > 2 {
		t.Errorf("Sorted allocates %.0f times, want 2", n)
	}
}

// TestStreamHelpersMatchTupleMethods: Projector, Column and Concatenator
// give what Tuple's Project, Get and Concat give, across a change of input
// names, and the value slices they carve from shared chunks are
// capacity-capped, so appending to one never writes into the next.
func TestStreamHelpersMatchTupleMethods(t *testing.T) {
	abc := []string{"A", "B", "C"}
	cab := []string{"C", "A", "B"}
	in := []Tuple{
		TrustedTuple(abc, []Value{TextValue("a1"), TextValue("b1"), TextValue("c1")}),
		TrustedTuple(abc, []Value{TextValue("a2"), TextValue("b2"), TextValue("c2")}),
		TrustedTuple(cab, []Value{TextValue("c3"), TextValue("a3"), TextValue("b3")}),
		TrustedTuple(abc, []Value{TextValue("a4"), Null, TextValue("c4")}),
	}
	other := T("X", TextValue("x"))
	pr := NewProjector([]string{"C", "A"})
	col := NewColumn("B")
	var cat Concatenator
	var projected, joined []Tuple
	for _, tup := range in {
		p, err := pr.Apply(tup)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := tup.Project([]string{"C", "A"})
		if p.Key() != want.Key() || p.String() != want.String() {
			t.Errorf("Projector = %s, want %s", p, want)
		}
		projected = append(projected, p)
		v, ok := col.Get(tup)
		if w, wok := tup.Get("B"); ok != wok || !ValueEqual(v, w) {
			t.Errorf("Column = %v %v, want %v %v", v, ok, w, wok)
		}
		j, err := cat.Concat(tup, other)
		if err != nil {
			t.Fatal(err)
		}
		wantJ, _ := tup.Concat(other)
		if j.String() != wantJ.String() {
			t.Errorf("Concatenator = %s, want %s", j, wantJ)
		}
		joined = append(joined, j)
	}
	before := fmt.Sprint(projected, joined)
	for _, ts := range [][]Tuple{projected, joined} {
		for _, tup := range ts {
			_ = append(tup.vals, TextValue("overflow"))
		}
	}
	if after := fmt.Sprint(projected, joined); after != before {
		t.Errorf("appending to one tuple's values changed another:\n%s\n%s", before, after)
	}
	if _, err := pr.Apply(other); err == nil {
		t.Error("Projector on a tuple without the attributes should fail")
	}
	if _, ok := col.Get(other); ok {
		t.Error("Column on a tuple without the attribute should report it absent")
	}
	if _, err := cat.Concat(in[0], in[1]); err == nil {
		t.Error("Concatenator of overlapping tuples should fail")
	}
}

// TestKeepDropsColumns: a Concatenator or Unnester with a Keep set builds
// the rows the full operator builds, minus the columns outside the set —
// including when the set keeps nothing of one operand.
func TestKeepDropsColumns(t *testing.T) {
	left := T("A", TextValue("a"), "B", TextValue("b"))
	right := T("X", TextValue("x"), "Y", TextValue("y"))
	for _, keep := range []Columns{nil, {"X": true}, {"B": true, "Y": true}, {}} {
		c := Concatenator{Keep: keep}
		got, err := c.Concat(left, right)
		if err != nil {
			t.Fatal(err)
		}
		full, _ := left.Concat(right)
		if want := pruned(full, keep); got.String() != want.String() {
			t.Errorf("Concat keeping %v = %s, want %s", keep, got, want)
		}
	}
	page := T("P", TextValue("p"), "L", ListValue{
		T("F", TextValue("f1"), "G", TextValue("g1")),
		T("F", TextValue("f2"), "G", TextValue("g2")),
	})
	for _, keep := range []Columns{nil, {"L.G": true}, {"P": true}, {}} {
		u := Unnester{Keep: keep}
		rows, err := u.Unnest(page, "L", nil)
		if err != nil {
			t.Fatal(err)
		}
		var all Unnester
		full, _ := all.Unnest(page, "L", nil)
		for i := range full {
			if want := pruned(full[i], keep); rows[i].String() != want.String() {
				t.Errorf("Unnest keeping %v: row %d = %s, want %s", keep, i, rows[i], want)
			}
		}
	}
}

// pruned is t without the attributes outside keep.
func pruned(t Tuple, keep Columns) Tuple {
	for _, n := range t.Names() {
		if !keep.Has(n) {
			t = t.Without(n)
		}
	}
	return t
}
