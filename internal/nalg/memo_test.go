package nalg

import (
	"math/rand"
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
// under a hash whose upper half collides for all of them.
func TestOrdinalSetGrows(t *testing.T) {
	for _, hash := range []func(int) uint64{
		func(i int) uint64 { return uint64(i) * 0x9e3779b97f4a7c15 },
		func(i int) uint64 { return 7<<32 | uint64(i) },
	} {
		var s ordinalSet
		for i := 0; i < 1000; i++ {
			if got := s.find(hash(i), func(ord int) bool { return ord == i }); got != -1 {
				t.Fatalf("found %d before it was added (as %d)", i, got)
			}
			s.add(hash(i), i)
		}
		for i := 0; i < 1000; i++ {
			if got := s.find(hash(i), func(ord int) bool { return ord == i }); got != i {
				t.Fatalf("find(%d) = %d", i, got)
			}
		}
	}
}
