package nalg

import (
	"strings"
	"testing"

	"ulixes/internal/sitegen"
)

func TestParseNavLinear(t *testing.T) {
	u, _, _ := fixture(t)
	e, err := ParseNav(u.Scheme, "ProfListPage / ProfList -> ToProf")
	if err != nil {
		t.Fatal(err)
	}
	want := From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild()
	if !Equal(e, want) {
		t.Errorf("parsed %s, want %s", e, want)
	}
}

func TestParseNavUnicodeOperators(t *testing.T) {
	u, _, _ := fixture(t)
	ascii, err := ParseNav(u.Scheme, "ProfListPage / ProfList -> ToProf")
	if err != nil {
		t.Fatal(err)
	}
	uni, err := ParseNav(u.Scheme, "ProfListPage ◦ ProfList → ToProf")
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(ascii, uni) {
		t.Errorf("unicode operators should parse identically:\n%s\n%s", ascii, uni)
	}
}

func TestParseNavSelectionRelative(t *testing.T) {
	u, _, _ := fixture(t)
	e, err := ParseNav(u.Scheme, "ProfListPage / ProfList -> ToProf [Rank='Full'] / CourseList -> ToCourse")
	if err != nil {
		t.Fatal(err)
	}
	s := e.String()
	if !strings.Contains(s, "σ[ProfPage.Rank='Full']") {
		t.Errorf("relative selection not resolved: %s", s)
	}
	if !strings.Contains(s, "→[ToCourse]CoursePage") {
		t.Errorf("navigation after selection missing: %s", s)
	}
}

func TestParseNavSelectionQualified(t *testing.T) {
	u, _, _ := fixture(t)
	e, err := ParseNav(u.Scheme, "SessionListPage / SesList [SessionListPage.SesList.Session='Fall'] -> ToSes")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.String(), "σ[SessionListPage.SesList.Session='Fall']") {
		t.Errorf("qualified selection wrong: %s", e)
	}
	// Relative form resolves to the same expression.
	e2, err := ParseNav(u.Scheme, "SessionListPage / SesList [Session='Fall'] -> ToSes")
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(e, e2) {
		t.Errorf("relative and qualified selections should agree:\n%s\n%s", e, e2)
	}
}

func TestParseNavAlias(t *testing.T) {
	u, _, _ := fixture(t)
	e, err := ParseNav(u.Scheme, "ProfListPage / ProfList -> ToProf as p2")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := InferSchema(e, u.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	if !sch.Has("p2.Name") {
		t.Errorf("alias not applied: %s", sch)
	}
}

func TestParseNavQuotedEscapes(t *testing.T) {
	u, _, _ := fixture(t)
	e, err := ParseNav(u.Scheme, "ProfListPage / ProfList [ProfName='O''Hara']")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.String(), "O'Hara") {
		t.Errorf("escape not handled: %s", e)
	}
}

func TestParseNavErrors(t *testing.T) {
	u, _, _ := fixture(t)
	for _, src := range []string{
		"",
		"NoSuchPage",
		"ProfListPage /",
		"ProfListPage ->",
		"ProfListPage / ProfList -> Nope",
		"ProfListPage / Nope",
		"ProfListPage [",
		"ProfListPage [Title]",
		"ProfListPage [Title=]",
		"ProfListPage [Title='x'",
		"ProfListPage [Nope='x']",
		"ProfListPage / ProfList -> ToProf as",
		"ProfListPage junk",
		"ProfListPage ['unterminated",
		"ProfListPage @",
	} {
		if _, err := ParseNav(u.Scheme, src); err == nil {
			t.Errorf("ParseNav(%q) should fail", src)
		}
	}
}

// TestParseNavExecutes runs a parsed navigation end to end.
func TestParseNavExecutes(t *testing.T) {
	u, ms, _ := fixture(t)
	e, err := ParseNav(u.Scheme, "SessionListPage / SesList [Session='Fall'] -> ToSes / CourseList -> ToCourse")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := Eval(e, u.Scheme, FetcherSource{F: privateSession(ms, u.Scheme, 0)})
	if err != nil {
		t.Fatal(err)
	}
	fall := 0
	for _, s := range u.SessionOf {
		if u.Params.Sessions[s] == "Fall" {
			fall++
		}
	}
	if rel.Len() != fall {
		t.Errorf("fall courses = %d, want %d", rel.Len(), fall)
	}
}

// TestParseNavRoundTripPaperNotation checks the parser accepts the rendered
// form of simple chains (modulo the follow-link annotation).
func TestParseNavDeterministic(t *testing.T) {
	u, _, _ := fixture(t)
	a, err := ParseNav(u.Scheme, "DeptListPage/DeptList->ToDept/ProfList->ToProf")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseNav(u.Scheme, "DeptListPage / DeptList -> ToDept / ProfList -> ToProf")
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(a, b) {
		t.Error("whitespace should not matter")
	}
}
