package main

import (
	"math/rand"
	"testing"

	"ulixes"
	"ulixes/internal/plancache"
)

func texts(qs []query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.Text
	}
	return out
}

// The plan cache must see every cold shape as new: no two of them may
// canonicalize to the same shape.
func TestColdShapesAreStructurallyDistinct(t *testing.T) {
	const n = 120
	shapes, err := coldShapes(7, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(shapes) != n {
		t.Fatalf("got %d shapes, want %d", len(shapes), n)
	}
	seen := make(map[string]string)
	atoms := make(map[int]int)
	for _, s := range shapes {
		q, err := ulixes.ParseQuery(s.Text)
		if err != nil {
			t.Fatalf("%s: %v", s.Text, err)
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Text, err)
		}
		if len(q.From) != s.Atoms {
			t.Errorf("%s: %d atoms, generator says %d", s.Text, len(q.From), s.Atoms)
		}
		atoms[s.Atoms]++
		canon, _, ok := plancache.Canonicalize(q)
		if !ok {
			t.Fatalf("%s: not canonicalizable", s.Text)
		}
		key := canon.String()
		if other, dup := seen[key]; dup {
			t.Errorf("same canonical shape twice:\n  %s\n  %s", other, s.Text)
		}
		seen[key] = s.Text
	}
	if atoms[2] != 48 || atoms[3] != 48 || atoms[4] != 24 {
		t.Errorf("mix %v, want 48 two-atom, 48 three-atom, 24 four-atom", atoms)
	}
}

func TestColdShapesFollowTheSeed(t *testing.T) {
	a, _ := coldShapes(7, 48)
	b, _ := coldShapes(7, 48)
	c, _ := coldShapes(8, 48)
	same := func(x, y []string) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return len(x) == len(y)
	}
	if !same(texts(a), texts(b)) {
		t.Error("same seed gave two different sequences")
	}
	if same(texts(c), texts(a)) {
		t.Error("different seeds gave the same sequence")
	}
	// Heaviest first: the atom count never rises along the sequence.
	for i := 1; i < len(a); i++ {
		if a[i].Atoms > a[i-1].Atoms {
			t.Fatalf("shape %d has %d atoms after one with %d", i, a[i].Atoms, a[i-1].Atoms)
		}
	}
}

func TestSuiteQueriesFollowTheSeed(t *testing.T) {
	draw := func(seed int64) []string {
		var out []string
		for _, c := range newSuiteClients(seed) {
			for i := 0; i < 3*len(suiteCycle); i++ {
				out = append(out, c.next(i).Text)
			}
		}
		return out
	}
	a, b, c := draw(3), draw(3), draw(4)
	differs := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, request %d differs: %q vs %q", i, a[i], b[i])
		}
		differs = differs || a[i] != c[i]
	}
	if !differs {
		t.Error("different seeds drew the same constants throughout")
	}
}

// Every query a seed can generate must have a golden answer, or the run
// reports it as failed.
func TestGoldenCoversTheGenerators(t *testing.T) {
	warm, err := loadGolden("..", "warm_repeat")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := loadGolden("..", "cold_shapes")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i := range suite {
			if _, err := warm.lookup(suiteQuery(i, rng).Text); err != nil {
				t.Fatal(err)
			}
		}
		shapes, err := coldShapes(seed, 120)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range shapes {
			if _, err := cold.lookup(s.Text); err != nil {
				t.Fatal(err)
			}
		}
	}
	distinct := func(qs []query) int {
		set := make(map[string]bool)
		for _, q := range qs {
			set[q.Text] = true
		}
		return len(set)
	}
	if w, c := distinct(allSuiteQueries()), distinct(allColdQueries()); len(warm) != w || len(cold) != c {
		t.Errorf("golden files hold %d and %d answers, generators can emit %d and %d: run -update-golden", len(warm), len(cold), w, c)
	}
}
