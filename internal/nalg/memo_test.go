package nalg

import (
	"math/rand"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ulixes/internal/nested"
	"ulixes/internal/sitegen"
)

// profNav builds ProfListPage ◦ ProfList → ProfPage with every alias
// prefixed by the query atom, the way translation instantiates a default
// navigation.
func profNav(atom string) Expr {
	list, page := atom+"$ProfListPage", atom+"$ProfPage"
	var e Expr = &EntryScan{Scheme: sitegen.ProfListPage, URL: "http://univ.example.edu/profs.html", Alias: list}
	e = &Unnest{In: e, Attr: list + ".ProfList"}
	return &Follow{In: e, Link: list + ".ProfList.ToProf", Target: sitegen.ProfPage, Alias: page}
}

func TestMemoInternsStructurally(t *testing.T) {
	m := NewMemo(sitegen.UniversityScheme())
	a := m.Node(&Select{In: profNav("p"), Pred: nested.Eq("p$ProfPage.Rank", "Full")})
	b := m.Node(&Select{In: profNav("p"), Pred: nested.Eq("p$ProfPage.Rank", "Full")})
	if a != b {
		t.Fatal("structurally equal expressions interned to different nodes")
	}
	if got := m.Len(); got != 4 {
		t.Errorf("%d nodes for scan, unnest, follow, select", got)
	}
	if m.Node(a.Expr()) != a || m.Node(a.Expr().(*Select).In) != a.Kids()[0] {
		t.Error("an interned expression and its operand must find their own nodes")
	}
	if other := m.Node(&Select{In: profNav("p"), Pred: nested.Eq("p$ProfPage.Rank", "Associate")}); other == a {
		t.Error("a different constant interned to the same node")
	}
	// WithKid is interning the rebuilt operator.
	q := m.Node(profNav("q"))
	if got, want := m.WithKid(a, 0, q), m.Node(&Select{In: profNav("q"), Pred: nested.Eq("p$ProfPage.Rank", "Full")}); got != want {
		t.Error("WithKid and interning the rebuilt expression disagree")
	}
	// A plan interned by one memo is a stranger to the next.
	m2 := NewMemo(sitegen.UniversityScheme())
	if n := m2.Node(a.Expr()); n.Expr() == a.Expr() || n.Expr().String() != a.Expr().String() {
		t.Error("a second memo must intern its own copy of the same plan")
	}
}

func TestMemoSchemaInferredOnce(t *testing.T) {
	ws := sitegen.UniversityScheme()
	m := NewMemo(ws)
	plans := []Expr{
		&Project{In: profNav("p"), Cols: []string{"p$ProfPage.Name"}},
		&Select{In: profNav("p"), Pred: nested.Eq("p$ProfPage.Rank", "Full")},
		&Join{L: profNav("p"), R: profNav("q"), Conds: []nested.EqCond{{Left: "p$ProfPage.Name", Right: "q$ProfPage.Name"}}},
		&Rename{In: &Project{In: profNav("p"), Cols: []string{"p$ProfPage.Name"}}, Map: map[string]string{"p$ProfPage.Name": "PName"}},
	}
	for round := 0; round < 2; round++ {
		for _, p := range plans {
			got, err := m.SchemaOf(m.Node(p))
			want, werr := InferSchema(p, ws)
			if err != nil || werr != nil {
				t.Fatalf("%s: %v / %v", p, err, werr)
			}
			if got.String() != want.String() {
				t.Errorf("%s: memo schema %s, want %s", p, got, want)
			}
		}
	}
	if m.Inferred() > m.Len() {
		t.Errorf("%d inferences for %d nodes", m.Inferred(), m.Len())
	}
	bad := &Join{L: profNav("p"), R: profNav("p")}
	_, err := m.SchemaOf(m.Node(&Project{In: bad, Cols: []string{"p$ProfPage.Name"}}))
	_, werr := InferSchema(bad, ws)
	if err == nil || err.Error() != werr.Error() {
		t.Errorf("ill-typed operand: memo says %v, InferSchema says %v", err, werr)
	}
	if m.Schema(bad) != nil {
		t.Error("Schema of an ill-typed plan must be nil")
	}
}

var aliasToken = regexp.MustCompile(`[A-Za-z0-9_]+\$[A-Za-z0-9_]+`)

// renderedKey is the definition Memo.Key implements without rendering: the
// plan's String with the atom of every alias token renamed to the ordinal
// of its first appearance.
func renderedKey(e Expr) string {
	next := 0
	seen := make(map[string]string)
	return aliasToken.ReplaceAllStringFunc(e.String(), func(tok string) string {
		i := strings.IndexByte(tok, '$')
		atom, rest := tok[:i], tok[i:]
		nn, ok := seen[atom]
		if !ok {
			nn = "a" + strconv.Itoa(next)
			next++
			seen[atom] = nn
		}
		return nn + rest
	})
}

// randomPlan stacks selections, projections, joins and renames over
// professor navigations of a few atoms.
func randomPlan(rng *rand.Rand, depth int) Expr {
	atoms := []string{"p", "q", "ci", "a"}
	atom := func() string { return atoms[rng.Intn(len(atoms))] }
	col := func(a string) string {
		return a + "$ProfPage." + []string{"Name", "Rank", "Email"}[rng.Intn(3)]
	}
	if depth == 0 {
		return profNav(atom())
	}
	in := randomPlan(rng, depth-1)
	switch rng.Intn(5) {
	case 0:
		return &Select{In: in, Pred: nested.Eq(col(atom()), []string{"Full", "x"}[rng.Intn(2)])}
	case 1:
		return &Project{In: in, Cols: []string{col(atom()), col(atom())}}
	case 2:
		return &Join{L: in, R: randomPlan(rng, depth-1), Conds: []nested.EqCond{{Left: col(atom()), Right: col(atom())}}}
	case 3:
		return &Rename{In: in, Map: map[string]string{col(atom()): "Out", col(atom()): "Other"}}
	default:
		a := atom()
		return &Unnest{In: in, Attr: a + "$ProfPage.CourseList"}
	}
}

// TestMemoKeyIsNormalisedRendering: over random plans, two plans get the
// same key exactly when their alias-normalised renderings are equal.
func TestMemoKeyIsNormalisedRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	m := NewMemo(sitegen.UniversityScheme())
	byKey := make(map[int32]string)
	byRendering := make(map[string]int32)
	for i := 0; i < 4000; i++ {
		p := randomPlan(rng, rng.Intn(4))
		key, want := m.Key(m.Node(p)), renderedKey(p)
		if prev, ok := byKey[key]; ok && prev != want {
			t.Fatalf("one key for two renderings:\n%s\n%s", prev, want)
		}
		if prev, ok := byRendering[want]; ok && prev != key {
			t.Fatalf("two keys for the rendering %s", want)
		}
		byKey[key], byRendering[want] = want, key
	}
	if len(byKey) < 500 {
		t.Fatalf("only %d distinct plans generated", len(byKey))
	}
}

// TestMemoKeyLeavesConstantsAlone: a constant that looks like an alias is
// compared verbatim and does not take an ordinal.
func TestMemoKeyLeavesConstantsAlone(t *testing.T) {
	m := NewMemo(sitegen.UniversityScheme())
	plan := func(outer, inner, val string) Expr {
		sel := &Select{In: profNav(inner), Pred: nested.Eq(inner+"$ProfPage.Rank", val)}
		return &Join{L: profNav(outer), R: sel, Conds: []nested.EqCond{{Left: outer + "$ProfPage.Name", Right: inner + "$ProfPage.Name"}}}
	}
	key := func(e Expr) int32 { return m.Key(m.Node(e)) }
	if key(plan("a", "q", "a$x")) != key(plan("q", "a", "a$x")) {
		t.Error("plans equal up to atom names must share a key whatever the constant looks like")
	}
	if key(plan("a", "q", "a$x")) == key(plan("a", "q", "q$x")) {
		t.Error("different constants must not share a key")
	}
}

// TestOrdinalSetGrows: ordinals stay findable through growth, including
// under a hash whose upper half collides for all of them, and through the
// growth of a reset set within the table it kept.
func TestOrdinalSetGrows(t *testing.T) {
	for _, hash := range []func(int) uint64{
		func(i int) uint64 { return uint64(i) * 0x9e3779b97f4a7c15 },
		func(i int) uint64 { return 7<<32 | uint64(i) },
	} {
		var s ordinalSet
		for _, n := range []int{1000, 300, 2000} {
			s.reset()
			// Every round stores other hashes under the same ordinals.
			h := func(i int) uint64 { return hash(i + 10000*n) }
			for i := 0; i < n; i++ {
				if got := s.find(h(i), func(ord int) bool { return ord == i }); got != -1 {
					t.Fatalf("found %d before it was added (as %d)", i, got)
				}
				s.add(h(i), i)
			}
			for i := 0; i < n; i++ {
				if got := s.find(h(i), func(ord int) bool { return ord == i }); got != i {
					t.Fatalf("find(%d) = %d", i, got)
				}
			}
		}
	}
}

// TestResetMemoIsFresh: a memo that has served one search and been Reset
// interns, keys, types and renders a second search exactly as a new memo
// does, node for node, though the second search's scheme gives a page the
// first one scanned an attribute more.
func TestResetMemoIsFresh(t *testing.T) {
	first := sitegen.UniversityScheme()
	ws := sitegen.UniversityScheme()
	prof := ws.Page(sitegen.ProfPage)
	prof.Attrs = append(prof.Attrs, nested.Field{Name: "Office", Type: nested.Text()})
	rng := rand.New(rand.NewSource(38))
	var before, second []Expr
	for i := 0; i < 600; i++ {
		before = append(before, randomPlan(rng, rng.Intn(4)))
		second = append(second, randomPlan(rng, rng.Intn(4)))
	}
	reused := NewMemo(first)
	for _, p := range before {
		n := reused.Node(p)
		reused.Key(n)
		reused.SchemaOf(n)
		reused.Text(n)
	}
	reused.Reset(ws)
	fresh := NewMemo(ws)
	for _, p := range second {
		a, b := reused.Node(p), fresh.Node(p)
		if a.ID() != b.ID() || reused.Key(a) != fresh.Key(b) {
			t.Fatalf("%s: node %d key %d after Reset, node %d key %d in a new memo", p, a.ID(), reused.Key(a), b.ID(), fresh.Key(b))
		}
		sa, errA := reused.SchemaOf(a)
		sb, errB := fresh.SchemaOf(b)
		if (errA == nil) != (errB == nil) || errA == nil && !reflect.DeepEqual(sa.Cols, sb.Cols) {
			t.Fatalf("%s: schema %v (%v) after Reset, %v (%v) in a new memo", p, sa, errA, sb, errB)
		}
		if got := string(reused.Text(a)); got != p.String() {
			t.Fatalf("Text after Reset is %s, String %s", got, p)
		}
	}
	if reused.Len() != fresh.Len() || reused.Inferred() != fresh.Inferred() {
		t.Errorf("%d nodes and %d inferences after Reset, %d and %d in a new memo", reused.Len(), reused.Inferred(), fresh.Len(), fresh.Inferred())
	}
}

// TestDetachOutlivesReset: a detached plan is plain heap nodes with no memo
// mark, shares the subtrees it has in common with the other plans detached
// beside it, and still renders the same once the memo has been Reset and
// has interned other plans over the memory it came from.
func TestDetachOutlivesReset(t *testing.T) {
	ws := sitegen.UniversityScheme()
	m := NewMemo(ws)
	shared := profNav("p")
	a := m.Detach(m.Node(&Select{In: shared, Pred: nested.Eq("p$ProfPage.Rank", "Full")}).Expr())
	b := m.Detach(m.Node(&Project{In: shared, Cols: []string{"p$ProfPage.Name"}}).Expr())
	if a.(*Select).In != b.(*Project).In {
		t.Error("plans detached together must share their common operand")
	}
	want := a.String() + " " + b.String()
	Walk(a, func(e Expr) {
		if metaOf(e).ref != (memoRef{}) {
			t.Errorf("%s: a detached node carries a memo mark", e)
		}
	})
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 3; round++ {
		m.Reset(ws)
		for i := 0; i < 300; i++ {
			m.Text(m.Node(randomPlan(rng, 3)))
		}
	}
	if got := a.String() + " " + b.String(); got != want {
		t.Errorf("detached plans changed when their memo was reused:\n%s\n%s", got, want)
	}
	if n := m.Node(a); n.Expr() == a {
		t.Error("a detached plan must be interned as a stranger")
	}
}

// TestTextIsString: the memo's rendering of a plan is its String.
func TestTextIsString(t *testing.T) {
	m := NewMemo(sitegen.UniversityScheme())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		p := randomPlan(rng, rng.Intn(5))
		if got, want := string(m.Text(m.Node(p))), p.String(); got != want {
			t.Fatalf("Text %s, String %s", got, want)
		}
	}
}

// TestSlabReuse: after Reset a slab hands out the memory it already has,
// zeroed, and allocates nothing. Reset itself zeroes nothing: a round that
// takes less than the one before leaves values that round dirtied in the
// chunks, and the next round that reaches them must still be handed zeroes.
func TestSlabReuse(t *testing.T) {
	var s Slab[int]
	fill := func(sizes ...int) {
		for _, n := range sizes {
			for i, p := 0, s.Take(n); i < n; i++ {
				if p[i] != 0 {
					t.Fatalf("Take(%d)[%d] = %d, want zeroed", n, i, p[i])
				}
				p[i] = i + 1
			}
		}
	}
	all := []int{3, 100, 5000, 20000, 1}
	fill(all...)
	s.Reset()
	if allocs := testing.AllocsPerRun(5, func() { fill(all...); s.Reset() }); allocs != 0 {
		t.Errorf("a reused slab allocated %.0f times a round", allocs)
	}
	// Dirty every value of every chunk, take less, then all of it again.
	for _, c := range s.chunks {
		for i := range c {
			c[i] = -1
		}
	}
	fill(3, 100)
	s.Reset()
	fill(all...)
}
