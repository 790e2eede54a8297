package nested

import "testing"

func aliasBase(t *testing.T) Tuple {
	t.Helper()
	tup, err := NewTuple(
		[]string{"A", "B", "C"},
		[]Value{TextValue("a"), TextValue("b"), TextValue("c")},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tup
}

// assertTuple checks a tuple's full contents against name/value pairs.
func assertTuple(t *testing.T, tup Tuple, want ...string) {
	t.Helper()
	if tup.Arity()*2 != len(want) {
		t.Fatalf("arity %d, want %d attrs", tup.Arity(), len(want)/2)
	}
	for i := 0; i < len(want); i += 2 {
		v, ok := tup.Get(want[i])
		if !ok {
			t.Fatalf("missing attribute %q in %v", want[i], tup)
		}
		if got := v.(TextValue); string(got) != want[i+1] {
			t.Errorf("%s = %q, want %q", want[i], got, want[i+1])
		}
	}
}

// TestWithOverrideDoesNotAliasOriginal: writing through the backing slices
// of a tuple returned by With (override branch) must never show through the
// original, even though the implementation may share the names slice of an
// immutable tuple.
func TestWithOverrideDoesNotAliasOriginal(t *testing.T) {
	orig := aliasBase(t)
	derived := orig.With("B", TextValue("B2"))

	// Clobber every backing cell of the derived tuple.
	for i := range derived.vals {
		derived.vals[i] = TextValue("junk")
	}
	assertTuple(t, orig, "A", "a", "B", "b", "C", "c")
}

// TestWithAddDoesNotAliasOriginal covers the append branch, including the
// spare-capacity hazard: two siblings derived from the same base must not
// see each other's added attribute, and appends through one must not leak
// into the other or the base.
func TestWithAddDoesNotAliasOriginal(t *testing.T) {
	orig := aliasBase(t)
	s1 := orig.With("D", TextValue("d1"))
	s2 := orig.With("D", TextValue("d2"))
	assertTuple(t, s1, "A", "a", "B", "b", "C", "c", "D", "d1")
	assertTuple(t, s2, "A", "a", "B", "b", "C", "c", "D", "d2")

	// Grow each sibling again; the grandchildren must stay independent even
	// if the siblings' backing arrays had spare capacity.
	g1 := s1.With("E", TextValue("e1"))
	g2 := s2.With("E", TextValue("e2"))
	for i := range g1.names {
		g1.names[i] = "X"
		g1.vals[i] = TextValue("junk")
	}
	assertTuple(t, orig, "A", "a", "B", "b", "C", "c")
	assertTuple(t, s1, "A", "a", "B", "b", "C", "c", "D", "d1")
	assertTuple(t, s2, "A", "a", "B", "b", "C", "c", "D", "d2")
	assertTuple(t, g2, "A", "a", "B", "b", "C", "c", "D", "d2", "E", "e2")
}

// TestWithoutDoesNotAliasOriginal: mutating the slices behind a Without
// result must leave the original intact, and removing from the middle must
// not shift values visible through the original.
func TestWithoutDoesNotAliasOriginal(t *testing.T) {
	orig := aliasBase(t)
	derived := orig.Without("B")
	assertTuple(t, derived, "A", "a", "C", "c")

	for i := range derived.names {
		derived.names[i] = "X"
		derived.vals[i] = TextValue("junk")
	}
	assertTuple(t, orig, "A", "a", "B", "b", "C", "c")

	// Removing an absent attribute returns the tuple itself; that is the
	// documented no-op, not an aliasing hazard, because tuples are
	// immutable by convention.
	same := orig.Without("Nope")
	assertTuple(t, same, "A", "a", "B", "b", "C", "c")
}

// TestWithoutThenWithSpareCapacity chains the two: Without leaves spare
// capacity at the end of its fresh slices, so a following With must still
// not write into a region another tuple can see.
func TestWithoutThenWithSpareCapacity(t *testing.T) {
	orig := aliasBase(t)
	shrunk := orig.Without("C")
	r1 := shrunk.With("D", TextValue("d1"))
	r2 := shrunk.With("D", TextValue("d2"))
	assertTuple(t, r1, "A", "a", "B", "b", "D", "d1")
	assertTuple(t, r2, "A", "a", "B", "b", "D", "d2")
	assertTuple(t, shrunk, "A", "a", "B", "b")
	assertTuple(t, orig, "A", "a", "B", "b", "C", "c")
}

// TestPutKeyBufPoisonsAliases pins the key-buffer pool's contract: Put
// truncates the buffer and zeroes the bytes it held, so an alias a caller
// wrongly keeps past putKeyBuf (a hash-join probe reading its key after the
// Put, say) reads zeros rather than a plausible stale key.
func TestPutKeyBufPoisonsAliases(t *testing.T) {
	b := getKeyBuf()
	*b = append(*b, "professor\x00key"...)
	alias := *b
	putKeyBuf(b)
	if len(*b) != 0 {
		t.Errorf("buffer length after Put = %d, want 0", len(*b))
	}
	if full := (*b)[:len(alias)]; string(full) != string(make([]byte, len(alias))) {
		t.Errorf("buffer after Put holds %q, want zeros", full)
	}
	for i, c := range alias {
		if c != 0 {
			t.Fatalf("alias taken before Put reads %q at byte %d, want zeros", alias, i)
		}
	}
}
