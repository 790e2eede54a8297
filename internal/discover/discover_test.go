package discover

import (
	"strings"
	"testing"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
	"ulixes/internal/sitegen"
)

func univInstance(t *testing.T) *adm.Instance {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	return u.Instance
}

func TestVerifyAllDeclaredConstraintsHold(t *testing.T) {
	in := univInstance(t)
	checks, err := Verify(in)
	if err != nil {
		t.Fatal(err)
	}
	wantCount := len(in.Scheme.LinkCs) + len(in.Scheme.InclCs)
	if len(checks) != wantCount {
		t.Fatalf("checks = %d, want %d", len(checks), wantCount)
	}
	for _, v := range checks {
		if !v.Holds {
			t.Errorf("declared constraint violated: %s (%s)", v.Constraint, v.Example)
		}
		if v.Violations != 0 || v.Example != "" {
			t.Errorf("clean constraint should have no violations: %+v", v)
		}
	}
}

func TestVerifyDetectsBrokenAnchor(t *testing.T) {
	u, err := sitegen.GenerateUniversity(sitegen.UniversityParams{Depts: 2, Profs: 4, Courses: 6})
	if err != nil {
		t.Fatal(err)
	}
	in := u.Instance
	// Corrupt one professor page's DName: the ProfPage.DName = DeptPage.DName
	// constraint must be reported as violated.
	var victim nested.Tuple
	for _, tup := range in.Relation(sitegen.ProfPage).Tuples() {
		victim = tup
		break
	}
	broken := adm.NewInstance(in.Scheme)
	for _, name := range in.Scheme.PageNames() {
		for _, tup := range in.Relation(name).Tuples() {
			if name == sitegen.ProfPage && tup.Equal(victim) {
				tup = tup.With("DName", nested.TextValue("Wrong Department"))
			}
			if err := broken.AddPage(name, tup); err != nil {
				t.Fatal(err)
			}
		}
	}
	checks, err := Verify(broken)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range checks {
		if strings.Contains(v.Constraint, "ProfPage.DName") && !v.Holds {
			found = true
			if v.Violations != 1 {
				t.Errorf("violations = %d, want 1", v.Violations)
			}
			if !strings.Contains(v.Example, "Wrong Department") {
				t.Errorf("example = %q", v.Example)
			}
		}
	}
	if !found {
		t.Error("broken anchor not detected")
	}
}

func TestVerifyDetectsBrokenInclusion(t *testing.T) {
	// Build a small scheme/instance directly where the inclusion fails.
	ws := adm.NewScheme()
	if err := ws.AddPage(&adm.PageScheme{Name: "A", Attrs: []nested.Field{
		{Name: "L", Type: nested.Link("T")},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := ws.AddPage(&adm.PageScheme{Name: "B", Attrs: []nested.Field{
		{Name: "L", Type: nested.Link("T"), Optional: true},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := ws.AddPage(&adm.PageScheme{Name: "T"}); err != nil {
		t.Fatal(err)
	}
	ws.AddInclusion(adm.InclusionConstraint{
		Sub:   adm.AttrRef{Scheme: "A", Path: adm.ParsePath("L")},
		Super: adm.AttrRef{Scheme: "B", Path: adm.ParsePath("L")},
	})
	in := adm.NewInstance(ws)
	if err := in.AddPage("T", nested.T(adm.URLAttr, nested.LinkValue("t1"))); err != nil {
		t.Fatal(err)
	}
	if err := in.AddPage("A", nested.T(adm.URLAttr, nested.LinkValue("a1"), "L", nested.LinkValue("t1"))); err != nil {
		t.Fatal(err)
	}
	if err := in.AddPage("B", nested.T(adm.URLAttr, nested.LinkValue("b1"), "L", nested.Null)); err != nil {
		t.Fatal(err)
	}
	checks, err := Verify(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) != 1 || checks[0].Holds {
		t.Errorf("inclusion violation not detected: %+v", checks)
	}
}

func TestMineRediscoverDeclared(t *testing.T) {
	in := univInstance(t)
	proposals, err := Mine(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	declaredLink := 0
	declaredIncl := 0
	for _, p := range proposals {
		if p.Declared {
			if p.Kind == "link" {
				declaredLink++
			} else {
				declaredIncl++
			}
		}
		if p.Support < 2 {
			t.Errorf("proposal below support threshold: %s", p)
		}
	}
	if declaredLink != len(in.Scheme.LinkCs) {
		t.Errorf("mined %d of %d declared link constraints", declaredLink, len(in.Scheme.LinkCs))
	}
	if declaredIncl != len(in.Scheme.InclCs) {
		t.Errorf("mined %d of %d declared inclusions", declaredIncl, len(in.Scheme.InclCs))
	}
}

func TestMineFindsUndeclaredTruths(t *testing.T) {
	in := univInstance(t)
	proposals, err := MineInclusions(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every course has exactly one instructor, so the professors' course
	// lists cover all courses too: an extensional equivalence the scheme
	// does not declare.
	found := false
	for _, p := range proposals {
		if p.Inclusion.String() == "SessionPage.CourseList.ToCourse ⊆ ProfPage.CourseList.ToCourse" {
			found = true
			if p.Declared {
				t.Error("this direction is not declared in the scheme")
			}
		}
	}
	if !found {
		t.Error("extensional inverse inclusion not mined")
	}
}

func TestMineRespectsViolations(t *testing.T) {
	in := univInstance(t)
	proposals, err := MineInclusions(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range proposals {
		// CoursePage.ToProf reaches only teaching professors, so the full
		// professor list is NOT included in it.
		if p.Inclusion.String() == "ProfListPage.ProfList.ToProf ⊆ CoursePage.ToProf" {
			t.Error("false inclusion mined")
		}
	}
}

func TestMineLinkConstraintsNoFalsePositives(t *testing.T) {
	in := univInstance(t)
	proposals, err := MineLinkConstraints(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every mined link constraint must verify cleanly.
	for _, p := range proposals {
		r, err := in.CheckLink(*p.Link)
		if err != nil {
			t.Fatal(err)
		}
		if r.Violations != 0 || r.Support != p.Support {
			t.Errorf("mined constraint does not re-verify: %s", p)
		}
	}
	// A constraint that is false must not be proposed: Email ≠ Name.
	for _, p := range proposals {
		if p.Link.Link.String() == "ProfListPage.ProfList.ToProf" && p.Link.TgtAttr == "Email" {
			t.Errorf("false link constraint mined: %s", p)
		}
	}
}

func TestMineSupportThreshold(t *testing.T) {
	in := univInstance(t)
	low, err := MineInclusions(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	high, err := MineInclusions(in, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(high) >= len(low) {
		t.Errorf("higher support threshold should prune: %d vs %d", len(high), len(low))
	}
}

func TestSourceCandidates(t *testing.T) {
	ws := sitegen.UniversityScheme()
	ps := ws.Page(sitegen.ProfPage)
	cands := sourceCandidates(ps, adm.ParsePath("CourseList.ToCourse"))
	var names []string
	for _, c := range cands {
		names = append(names, c.String())
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"Name", "Rank", "DName", "CourseList.CName"} {
		if !strings.Contains(joined, want) {
			t.Errorf("candidates missing %s: %v", want, names)
		}
	}
	// The link itself is excluded.
	for _, c := range cands {
		if c.String() == "CourseList.ToCourse" {
			t.Error("link itself should not be a source candidate")
		}
	}
}

func TestProposalString(t *testing.T) {
	lc := adm.LinkConstraint{
		Link:    adm.AttrRef{Scheme: "S", Path: adm.ParsePath("L")},
		SrcAttr: adm.ParsePath("A"),
		TgtAttr: "B",
	}
	p := Proposal{Kind: "link", Link: &lc, Support: 7, Declared: true}
	if !strings.Contains(p.String(), "support 7") || !strings.Contains(p.String(), "(declared)") {
		t.Errorf("proposal string = %q", p.String())
	}
	ic := adm.InclusionConstraint{
		Sub:   adm.AttrRef{Scheme: "S", Path: adm.ParsePath("L")},
		Super: adm.AttrRef{Scheme: "T", Path: adm.ParsePath("M")},
	}
	p2 := Proposal{Kind: "inclusion", Inclusion: &ic, Support: 3}
	if strings.Contains(p2.String(), "declared") {
		t.Errorf("undeclared proposal string = %q", p2.String())
	}
}

func TestMineBibliography(t *testing.T) {
	b, err := sitegen.GenerateBibliography(sitegen.BibliographyParams{
		Authors: 60, Confs: 5, DBConfs: 2, Years: 3, PapersPerEdition: 3, AuthorsPerPaper: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Support threshold 1: the home page features a single conference, so
	// its constraints have support 1.
	proposals, err := Mine(b.Instance, 1)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, p := range proposals {
		if p.Declared {
			declared++
		}
	}
	if declared != len(b.Scheme.LinkCs)+len(b.Scheme.InclCs) {
		t.Errorf("mined %d declared constraints, scheme has %d",
			declared, len(b.Scheme.LinkCs)+len(b.Scheme.InclCs))
	}
}

// nullTargetInstance is a two-item list whose second item links to a page
// with a null Nick: Nick = Nick via ToItem has support 1 (the first item)
// and one violation (z against a null).
func nullTargetInstance(t *testing.T) *adm.Instance {
	t.Helper()
	ws, err := adm.ParseScheme(`
page ListPage {
  Items: list of {
    Name: text
    Nick?: text
    ToItem: link ItemPage
  }
}
page ItemPage {
  Name: text
  Nick?: text
}
entry ListPage "http://x/l"
`)
	if err != nil {
		t.Fatal(err)
	}
	in := adm.NewInstance(ws)
	item := func(name, nick, url string) nested.Tuple {
		return nested.T("Name", nested.TextValue(name), "Nick", nested.TextValue(nick), "ToItem", nested.LinkValue(url))
	}
	pages := []struct {
		scheme string
		t      nested.Tuple
	}{
		{"ListPage", nested.T(adm.URLAttr, nested.LinkValue("http://x/l"), "Items", nested.ListValue{
			item("a", "x", "http://x/1"),
			item("b", "z", "http://x/2"),
		})},
		{"ItemPage", nested.T(adm.URLAttr, nested.LinkValue("http://x/1"), "Name", nested.TextValue("a"), "Nick", nested.TextValue("x"))},
		{"ItemPage", nested.T(adm.URLAttr, nested.LinkValue("http://x/2"), "Name", nested.TextValue("b"), "Nick", nested.Null)},
	}
	for _, p := range pages {
		if err := in.AddPage(p.scheme, p.t); err != nil {
			t.Fatal(err)
		}
	}
	return in
}

// TestMinedConstraintsVerify requires the miner and the verifier to agree:
// every constraint mined from an instance, once declared, verifies on that
// same instance, and the instance still validates.
func TestMinedConstraintsVerify(t *testing.T) {
	bib, err := sitegen.GenerateBibliography(sitegen.BibliographyParams{
		Authors: 60, Confs: 5, DBConfs: 2, Years: 3, PapersPerEdition: 3, AuthorsPerPaper: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		in   *adm.Instance
	}{
		{"null-target", nullTargetInstance(t)},
		{"university", univInstance(t)},
		{"bibliography", bib.Instance},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proposals, err := Mine(tc.in, 1)
			if err != nil {
				t.Fatal(err)
			}
			ws := tc.in.Scheme
			ws.LinkCs, ws.InclCs = nil, nil
			for _, p := range proposals {
				if p.Link != nil {
					ws.LinkCs = append(ws.LinkCs, *p.Link)
				} else {
					ws.InclCs = append(ws.InclCs, *p.Inclusion)
				}
			}
			checks, err := Verify(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range checks {
				if !v.Holds {
					t.Errorf("mined %s %s does not verify: %d violations (%s)", v.Kind, v.Constraint, v.Violations, v.Example)
				}
			}
			if err := tc.in.Validate(); err != nil {
				t.Errorf("instance with its mined constraints declared does not validate: %v", err)
			}
		})
	}
}
