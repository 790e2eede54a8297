package cq

import (
	"strings"
	"testing"
)

func TestParseSimple(t *testing.T) {
	q, err := Parse("SELECT p.Name FROM Professor p")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 1 || q.Select[0].Attr.String() != "p.Name" {
		t.Errorf("select = %+v", q.Select)
	}
	if len(q.From) != 1 || q.From[0].Relation != "Professor" || q.From[0].EffAlias() != "p" {
		t.Errorf("from = %+v", q.From)
	}
}

func TestParseFullQuery(t *testing.T) {
	src := `SELECT c.CName AS Course, c.Description
	        FROM Professor p, CourseInstructor ci, Course c
	        WHERE p.PName = ci.PName AND ci.CName = c.CName
	          AND c.Session = 'Fall' AND p.Rank = 'Full'`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.From) != 3 || len(q.Joins) != 2 || len(q.Consts) != 2 {
		t.Errorf("parsed shape: %d atoms, %d joins, %d consts", len(q.From), len(q.Joins), len(q.Consts))
	}
	if q.Select[0].EffName() != "Course" || q.Select[1].EffName() != "Description" {
		t.Errorf("output names: %v, %v", q.Select[0].EffName(), q.Select[1].EffName())
	}
	if q.Joins[0].Left.String() != "p.PName" || q.Joins[0].Right.String() != "ci.PName" {
		t.Errorf("join = %+v", q.Joins[0])
	}
	if q.Consts[1].Attr.String() != "p.Rank" || q.Consts[1].Val != "Full" {
		t.Errorf("const = %+v", q.Consts[1])
	}
}

func TestParseDefaultAlias(t *testing.T) {
	q, err := Parse("SELECT Professor.Name FROM Professor WHERE Professor.Rank = 'Full'")
	if err != nil {
		t.Fatal(err)
	}
	if q.From[0].EffAlias() != "Professor" {
		t.Errorf("default alias = %q", q.From[0].EffAlias())
	}
	if _, ok := q.Atom("Professor"); !ok {
		t.Error("atom lookup by default alias failed")
	}
	if _, ok := q.Atom("nope"); ok {
		t.Error("atom lookup of absent alias should fail")
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse("select p.A from R p where p.A = 'x'"); err != nil {
		t.Errorf("lowercase keywords should parse: %v", err)
	}
}

func TestParseQuotedStrings(t *testing.T) {
	q, err := Parse("SELECT p.A FROM R p WHERE p.B = 'O''Brien & <co>'")
	if err != nil {
		t.Fatal(err)
	}
	if q.Consts[0].Val != "O'Brien & <co>" {
		t.Errorf("string constant = %q", q.Consts[0].Val)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT",
		"SELECT p.A",
		"SELECT p.A FROM",
		"SELECT p FROM R p",                   // attribute without dot
		"SELECT p.A FROM R p WHERE p.A",       // missing =
		"SELECT p.A FROM R p WHERE p.A = ",    // missing rhs
		"SELECT p.A FROM R p WHERE p.A < 'x'", // non-equality
		"SELECT p.A FROM R p trailing",        // junk — parsed as alias then junk
		"SELECT p.A FROM R p WHERE p.A = 'x' AND", // dangling AND
		"SELECT p.A FROM R p WHERE p.A = 'unterminated",
		"SELECT p.A, p.A FROM R p",            // duplicate output name
		"SELECT q.A FROM R p",                 // unknown alias in select
		"SELECT p.A FROM R p, S p",            // duplicate alias
		"SELECT p.A FROM R p WHERE q.A = 'x'", // unknown alias in where
		"SELECT p.A FROM R p WHERE p.A = q.B", // unknown alias in join
		"SELECT select.A FROM R p",            // keyword as identifier
		"SELECT p.A FROM R p; DROP",           // bad char
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseDuplicateOutputWithAS(t *testing.T) {
	q, err := Parse("SELECT p.A AS X, p.A AS Y FROM R p")
	if err != nil {
		t.Fatal(err)
	}
	if q.Select[0].EffName() != "X" || q.Select[1].EffName() != "Y" {
		t.Error("AS should disambiguate outputs")
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	src := "SELECT c.CName AS Course FROM Course c, Professor p WHERE p.PName = c.CName AND c.Session = 'Fall'"
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", q.String(), err)
	}
	if q2.String() != q.String() {
		t.Errorf("round trip: %q vs %q", q.String(), q2.String())
	}
	if !strings.Contains(q.String(), "AS Course") {
		t.Errorf("String should render AS: %s", q)
	}
}

func TestValidateDirect(t *testing.T) {
	q := &Query{
		Select: []OutCol{{Attr: AttrUse{Atom: "p", Attr: "A"}}},
		From:   []Atom{{Relation: "R", Alias: "p"}},
	}
	if err := q.Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	q.Joins = append(q.Joins, EqJoin{Left: AttrUse{Atom: "p", Attr: "A"}, Right: AttrUse{Atom: "ghost", Attr: "B"}})
	if err := q.Validate(); err == nil {
		t.Error("join with unknown alias should be rejected")
	}
	q.Joins = nil
	q.Consts = append(q.Consts, ConstSel{Attr: AttrUse{Atom: "ghost", Attr: "B"}, Val: "x"})
	if err := q.Validate(); err == nil {
		t.Error("const with unknown alias should be rejected")
	}
}

func TestParseSelectStar(t *testing.T) {
	q, err := Parse("SELECT * FROM Professor p WHERE p.Rank = 'Full'")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Star || len(q.Select) != 0 {
		t.Errorf("star parse = %+v", q)
	}
	if !strings.HasPrefix(q.String(), "SELECT *") {
		t.Errorf("star rendering = %q", q.String())
	}
	if _, err := Parse(q.String()); err != nil {
		t.Errorf("star round trip: %v", err)
	}
	// Star cannot mix with explicit columns (the grammar stops the list).
	if _, err := Parse("SELECT *, p.A FROM R p"); err == nil {
		t.Error("star plus columns should fail")
	}
	bad := &Query{Star: true, Select: []OutCol{{Attr: AttrUse{Atom: "p", Attr: "A"}}}, From: []Atom{{Relation: "R", Alias: "p"}}}
	if err := bad.Validate(); err == nil {
		t.Error("star with explicit columns should fail validation")
	}
}

// TestOutputRule pins the output rule live plans and view answers share:
// one projected column per distinct source column in SELECT order, a rename
// only where the output name differs, and an error when one source column
// would need two output names.
func TestOutputRule(t *testing.T) {
	colOf := func(u AttrUse) (string, error) { return u.String(), nil }
	name := OutCol{Attr: AttrUse{Atom: "p", Attr: "PName"}}
	who := OutCol{Attr: name.Attr, As: "Who"}
	kept := OutCol{Attr: AttrUse{Atom: "c", Attr: "CName"}, As: "c.CName"}

	cols, ren, err := Output([]OutCol{name, name, kept}, colOf)
	if err != nil || strings.Join(cols, ",") != "p.PName,c.CName" || len(ren) != 1 || ren["p.PName"] != "PName" {
		t.Fatalf("cols %v ren %v err %v, want p.PName,c.CName and one rename p.PName -> PName", cols, ren, err)
	}
	if _, _, err := Output([]OutCol{name, who}, colOf); err == nil || !strings.Contains(err.Error(), "same source attribute") {
		t.Fatalf("two names for p.PName: err %v, want the duplicate-source error", err)
	}
}
