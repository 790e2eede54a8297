package nalg

import (
	"testing"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
	"ulixes/internal/sitegen"
)

// hasKind reports whether some diagnostic has the given kind.
func hasKind(diags []Diagnostic, k DiagKind) bool {
	for _, d := range diags {
		if d.Kind == k {
			return true
		}
	}
	return false
}

// unknownExpr exercises the checker's catch-all arm.
type unknownExpr struct{}

func (unknownExpr) Children() []Expr { return nil }
func (unknownExpr) String() string   { return "?" }

// TestCheckRejections hand-builds one ill-typed plan per diagnostic kind
// and requires Check to report exactly that kind (possibly among others).
func TestCheckRejections(t *testing.T) {
	u, _, _ := fixture(t)
	ws := u.Scheme
	profs := From(ws, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild()

	cases := []struct {
		name string
		e    Expr
		kind DiagKind
	}{
		{"ext-scan-leaf", &Join{L: &ExtScan{Relation: "Professor"}, R: profs}, DiagNotComputable},
		{"unknown-scheme", &EntryScan{Scheme: "NoSuchPage"}, DiagUnknownScheme},
		{"not-entry-point", &EntryScan{Scheme: sitegen.ProfPage}, DiagNotEntryPoint},
		{"entry-url-mismatch", &EntryScan{Scheme: sitegen.ProfListPage, URL: "http://univ.example.edu/elsewhere.html"}, DiagEntryURLMismatch},
		{"unknown-column", &Unnest{In: &EntryScan{Scheme: sitegen.ProfListPage}, Attr: "ProfListPage.NoSuchList"}, DiagUnknownColumn},
		{"unnest-non-list", &Unnest{In: &EntryScan{Scheme: sitegen.ProfListPage}, Attr: "ProfListPage.Title"}, DiagNotList},
		{"follow-non-link", &Follow{In: &EntryScan{Scheme: sitegen.ProfListPage}, Link: "ProfListPage.Title", Target: sitegen.ProfPage}, DiagNotLink},
		{"follow-wrong-target", &Follow{
			In:     &Unnest{In: &EntryScan{Scheme: sitegen.ProfListPage}, Attr: "ProfListPage.ProfList"},
			Link:   "ProfListPage.ProfList.ToProf",
			Target: sitegen.DeptPage,
		}, DiagLinkTargetMismatch},
		{"select-multi-valued", &Select{
			In:   &EntryScan{Scheme: sitegen.ProfListPage},
			Pred: nested.Eq("ProfListPage.ProfList", "x"),
		}, DiagNotMono},
		{"follow-duplicate-alias", &Follow{In: profs, Link: "ProfPage.ToDept", Target: sitegen.DeptPage, Alias: "ProfPage"}, DiagDuplicateColumn},
		{"empty-projection", &Project{In: profs, Cols: nil}, DiagEmptyProjection},
		{"unknown-node", unknownExpr{}, DiagUnknownNode},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := Check(tc.e, ws)
			if !hasKind(diags, tc.kind) {
				t.Fatalf("Check(%s) = %v, want a %s diagnostic", tc.e, diags, tc.kind)
			}
		})
	}
}

// TestCheckRecovers requires the checker to keep going past a failure and
// report independent errors from separate branches of the same plan.
func TestCheckRecovers(t *testing.T) {
	u, _, _ := fixture(t)
	bad := &Join{
		L: &Unnest{In: &EntryScan{Scheme: sitegen.ProfListPage}, Attr: "ProfListPage.Title"}, // not a list
		R: &EntryScan{Scheme: sitegen.ProfPage},                                              // not an entry point
	}
	diags := Check(bad, u.Scheme)
	if !hasKind(diags, DiagNotList) || !hasKind(diags, DiagNotEntryPoint) {
		t.Fatalf("Check should report both branches, got %v", diags)
	}
}

// TestCheckAcceptsValidPlans requires Check to agree with InferSchema on
// well-typed plans, including aliases, renames, joins and selections.
func TestCheckAcceptsValidPlans(t *testing.T) {
	u, _, _ := fixture(t)
	ws := u.Scheme
	profs := From(ws, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild()
	courses := &Follow{
		In:     &Unnest{In: profs, Attr: "ProfPage.CourseList"},
		Link:   "ProfPage.CourseList.ToCourse",
		Target: sitegen.CoursePage,
	}
	plans := []Expr{
		profs,
		courses,
		&Select{In: courses, Pred: nested.Eq("CoursePage.Session", "Fall")},
		&Project{In: profs, Cols: []string{"ProfPage.Name", "ProfPage.Email"}},
		&Rename{In: profs, Map: map[string]string{"ProfPage.Name": "Professor.Name"}},
		&Join{
			L: From(ws, sitegen.ProfListPage).Unnest("ProfList").MustBuild(),
			R: From(ws, sitegen.DeptListPage).Unnest("DeptList").MustBuild(),
		},
	}
	for _, p := range plans {
		if diags := Check(p, ws); len(diags) != 0 {
			t.Errorf("Check(%s) = %v, want clean", p, diags)
		}
		if _, err := InferSchema(p, ws); err != nil {
			t.Errorf("InferSchema(%s): %v", p, err)
		}
	}
}

// TestCheckCols requires the provenance validator to reject a column whose
// recorded origin does not resolve, and one whose declared type conflicts.
func TestCheckCols(t *testing.T) {
	u, _, _ := fixture(t)
	ws := u.Scheme
	bad := []*Col{
		{Name: "ProfPage.Ghost", Type: nested.Text(), Scheme: sitegen.ProfPage, Path: adm.Path{"Ghost"}},
		{Name: "ProfPage.Name", Type: nested.Link(sitegen.DeptPage), Scheme: sitegen.ProfPage, Path: adm.Path{"Name"}},
	}
	diags := CheckCols(bad, ws)
	if len(diags) != 2 || !hasKind(diags, DiagBadProvenance) {
		t.Fatalf("CheckCols = %v, want two bad-provenance diagnostics", diags)
	}
	good := []*Col{
		{Name: "ProfPage.Name", Type: nested.Text(), Scheme: sitegen.ProfPage, Path: adm.Path{"Name"}},
		{Name: "x", Type: nested.Text()}, // no provenance: nothing to validate
	}
	if diags := CheckCols(good, ws); len(diags) != 0 {
		t.Fatalf("CheckCols(good) = %v, want clean", diags)
	}
}
