package nalg

import (
	"strings"
	"testing"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
	"ulixes/internal/pagecache"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
)

// privateSession is one query's page source over a store of its own, as the
// engine builds it when no shared store is configured.
func privateSession(srv site.Server, ws *adm.Scheme, workers int) *pagecache.Session {
	if workers <= 0 {
		workers = site.DefaultFetchWorkers
	}
	return pagecache.New(srv, ws, pagecache.Config{
		DefaultTTL: pagecache.Forever, Workers: workers, MaxInFlight: workers,
	}).NewSession(pagecache.SessionOptions{})
}

// fixture builds the paper-sized university site with a page source.
func fixture(t *testing.T) (*sitegen.University, *site.MemSite, Source) {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	return u, ms, FetcherSource{F: privateSession(ms, u.Scheme, 0)}
}

func TestExprStrings(t *testing.T) {
	u, _, _ := fixture(t)
	// Expression 1 of the paper: ProfListPage ◦ ProfList → ProfPage.
	e := From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild()
	want := "ProfListPage◦ProfList→[ToProf]ProfPage"
	if got := e.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	sel := &Select{In: e, Pred: nested.Eq("ProfPage.DName", "Computer Science")}
	proj := &Project{In: sel, Cols: []string{"ProfPage.Name", "ProfPage.Email"}}
	if !strings.Contains(proj.String(), "π[ProfPage.Name,ProfPage.Email]") {
		t.Errorf("projection rendering: %s", proj)
	}
	if !strings.Contains(sel.String(), "σ[ProfPage.DName='Computer Science']") {
		t.Errorf("selection rendering: %s", sel)
	}
}

func TestComputable(t *testing.T) {
	u, _, _ := fixture(t)
	e := From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild()
	if !Computable(e) {
		t.Error("entry-rooted navigation should be computable")
	}
	ext := &Join{L: &ExtScan{Relation: "Professor"}, R: e, Conds: nil}
	if Computable(ext) {
		t.Error("expression with external leaf should not be computable")
	}
	if len(Leaves(ext)) != 2 {
		t.Error("leaves miscounted")
	}
}

func TestEqualAndWalk(t *testing.T) {
	u, _, _ := fixture(t)
	a := From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").MustBuild()
	b := From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").MustBuild()
	c := From(u.Scheme, sitegen.DeptListPage).Unnest("DeptList").MustBuild()
	if !Equal(a, b) || Equal(a, c) {
		t.Error("Equal wrong")
	}
	if !Equal(nil, nil) || Equal(a, nil) {
		t.Error("Equal nil handling wrong")
	}
	n := 0
	Walk(a, func(Expr) { n++ })
	if n != 2 {
		t.Errorf("walk visited %d nodes", n)
	}
}

func TestInferSchemaEntry(t *testing.T) {
	u, _, _ := fixture(t)
	e := &EntryScan{Scheme: sitegen.ProfListPage, URL: sitegen.UnivProfListURL}
	s, err := InferSchema(e, u.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Has("ProfListPage.URL") || !s.Has("ProfListPage.ProfList") {
		t.Errorf("schema = %s", s)
	}
	col, _ := s.Col("ProfListPage.ProfList")
	if col.Type.Kind != nested.KindList || col.Scheme != sitegen.ProfListPage {
		t.Errorf("ProfList col = %+v", col)
	}
	// Non-entry scheme rejected.
	if _, err := InferSchema(&EntryScan{Scheme: sitegen.ProfPage, URL: "u"}, u.Scheme); err == nil {
		t.Error("EntryScan of non-entry scheme should fail")
	}
	if _, err := InferSchema(&EntryScan{Scheme: "Nope", URL: "u"}, u.Scheme); err == nil {
		t.Error("unknown scheme should fail")
	}
	if _, err := InferSchema(&ExtScan{Relation: "R"}, u.Scheme); err == nil {
		t.Error("ExtScan should have no schema")
	}
}

func TestInferSchemaNavigation(t *testing.T) {
	u, _, _ := fixture(t)
	e := From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild()
	s, err := InferSchema(e, u.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ProfListPage.URL",
		"ProfListPage.ProfList.ProfName",
		"ProfListPage.ProfList.ToProf",
		"ProfPage.URL",
		"ProfPage.Name",
		"ProfPage.CourseList",
	} {
		if !s.Has(want) {
			t.Errorf("schema missing %q: %s", want, s)
		}
	}
	if s.Has("ProfListPage.ProfList") {
		t.Error("unnested list column should be gone")
	}
	// Provenance of the promoted link column.
	col, _ := s.Col("ProfListPage.ProfList.ToProf")
	if col.Scheme != sitegen.ProfListPage || col.Path.String() != "ProfList.ToProf" {
		t.Errorf("provenance = %+v", col)
	}
	if col.Ref().String() != "ProfListPage.ProfList.ToProf" {
		t.Errorf("Ref = %s", col.Ref())
	}
}

func TestInferSchemaErrors(t *testing.T) {
	u, _, _ := fixture(t)
	entry := &EntryScan{Scheme: sitegen.ProfListPage, URL: sitegen.UnivProfListURL}
	cases := []Expr{
		&Unnest{In: entry, Attr: "ProfListPage.Missing"},
		&Unnest{In: entry, Attr: "ProfListPage.Title"},
		&Follow{In: entry, Link: "ProfListPage.Missing", Target: sitegen.ProfPage},
		&Follow{In: entry, Link: "ProfListPage.Title", Target: sitegen.ProfPage},
		&Follow{In: &Unnest{In: entry, Attr: "ProfListPage.ProfList"}, Link: "ProfListPage.ProfList.ToProf", Target: sitegen.DeptPage},
		&Select{In: entry, Pred: nested.Eq("Missing", "x")},
		&Select{In: entry, Pred: nested.Eq("ProfListPage.ProfList", "x")},
		&Project{In: entry, Cols: []string{"Missing"}},
		&Project{In: entry, Cols: nil},
		&Join{L: entry, R: entry, Conds: nil}, // column collision
		&Rename{In: entry, Map: map[string]string{"Missing": "X"}},
		&Rename{In: entry, Map: map[string]string{"ProfListPage.URL": "ProfListPage.Title"}},
	}
	for i, e := range cases {
		if _, err := InferSchema(e, u.Scheme); err == nil {
			t.Errorf("case %d (%s): expected schema error", i, e)
		}
	}
}

func TestInferSchemaJoin(t *testing.T) {
	u, _, _ := fixture(t)
	l := From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").MustBuild()
	r := From(u.Scheme, sitegen.DeptListPage).Unnest("DeptList").MustBuild()
	j := &Join{L: l, R: r, Conds: []nested.EqCond{{Left: "ProfListPage.ProfList.ProfName", Right: "DeptListPage.DeptList.DeptName"}}}
	s, err := InferSchema(j, u.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cols) != 8 {
		t.Errorf("join schema = %s", s)
	}
	bad := &Join{L: l, R: r, Conds: []nested.EqCond{{Left: "Missing", Right: "DeptListPage.DeptList.DeptName"}}}
	if _, err := InferSchema(bad, u.Scheme); err == nil {
		t.Error("bad join condition should fail")
	}
	bad2 := &Join{L: l, R: r, Conds: []nested.EqCond{{Left: "ProfListPage.ProfList.ProfName", Right: "Missing"}}}
	if _, err := InferSchema(bad2, u.Scheme); err == nil {
		t.Error("bad right condition should fail")
	}
}

func TestBuilderErrors(t *testing.T) {
	u, _, _ := fixture(t)
	if _, err := From(u.Scheme, sitegen.ProfPage).Build(); err == nil {
		t.Error("From non-entry should fail")
	}
	if _, err := FromAlias(u.Scheme, sitegen.ProfPage, "X").Build(); err == nil {
		t.Error("FromAlias non-entry should fail")
	}
	if _, err := From(u.Scheme, sitegen.ProfListPage).Follow("Nope").Build(); err == nil {
		t.Error("Follow of missing attribute should fail")
	}
	if _, err := From(u.Scheme, sitegen.ProfListPage).Follow("Title").Build(); err == nil {
		t.Error("Follow of non-link should fail")
	}
	// Errors propagate through subsequent calls.
	b := From(u.Scheme, sitegen.ProfPage).Unnest("X").Follow("Y").Where(nested.Eq("A", "b")).WhereEq("A", "b").Project("C")
	if _, err := b.Build(); err == nil {
		t.Error("chained error should surface at Build")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustBuild should panic on error")
			}
		}()
		From(u.Scheme, sitegen.ProfPage).MustBuild()
	}()
}

func TestBuilderPrefixTracking(t *testing.T) {
	u, _, _ := fixture(t)
	b := From(u.Scheme, sitegen.SessionListPage).Unnest("SesList")
	if b.Prefix() != "SessionListPage.SesList" {
		t.Errorf("prefix = %q", b.Prefix())
	}
	b = b.Follow("ToSes")
	if b.Prefix() != "SessionPage" {
		t.Errorf("prefix = %q", b.Prefix())
	}
	b = b.FollowAs("", "")
	_ = b
}

func TestEvalEntryScan(t *testing.T) {
	u, _, src := fixture(t)
	e := From(u.Scheme, sitegen.ProfListPage).MustBuild()
	rel, err := Eval(e, u.Scheme, src)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("entry relation len = %d", rel.Len())
	}
	tup := rel.Tuples()[0]
	if _, ok := tup.Get("ProfListPage.URL"); !ok {
		t.Errorf("columns not qualified: %v", tup.Names())
	}
}

func TestEvalUnnestCardinality(t *testing.T) {
	u, _, src := fixture(t)
	e := From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").MustBuild()
	rel, err := Eval(e, u.Scheme, src)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != u.Params.Profs {
		t.Errorf("unnest len = %d, want %d", rel.Len(), u.Params.Profs)
	}
}

// TestEvalExpression2 reproduces the paper's Expression (2): name and email
// of professors in the Computer Science department.
func TestEvalExpression2(t *testing.T) {
	u, ms, src := fixture(t)
	e := From(u.Scheme, sitegen.ProfListPage).
		Unnest("ProfList").
		Follow("ToProf").
		Where(nested.Eq("ProfPage.DName", "Computer Science")).
		Project("ProfPage.Name", "ProfPage.Email").
		MustBuild()
	rel, err := Eval(e, u.Scheme, src)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth from the instance.
	want := 0
	for i := 0; i < u.Params.Profs; i++ {
		if u.DeptOf[i] == 0 { // dept 0 is Computer Science
			want++
		}
	}
	if rel.Len() != want {
		t.Errorf("CS professors = %d, want %d", rel.Len(), want)
	}
	// Cost: 1 entry + all professor pages (selection is downstream of the
	// navigation in this unoptimized expression).
	if got := ms.Counters().Gets(); got != 1+u.Params.Profs {
		t.Errorf("page accesses = %d, want %d", got, 1+u.Params.Profs)
	}
}

// TestEvalFigure2Plan evaluates the query plan of Figure 2: name and
// description of all courses held by members of the CS department.
func TestEvalFigure2Plan(t *testing.T) {
	u, _, src := fixture(t)
	e := From(u.Scheme, sitegen.DeptListPage).
		Unnest("DeptList").
		Where(nested.Eq("DeptListPage.DeptList.DeptName", "Computer Science")).
		Follow("ToDept").
		Unnest("ProfList").
		Follow("ToProf").
		Unnest("CourseList").
		Follow("ToCourse").
		Project("CoursePage.CName", "CoursePage.Description").
		MustBuild()
	rel, err := Eval(e, u.Scheme, src)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for c := 0; c < u.Params.Courses; c++ {
		if u.DeptOf[u.InstructorOf[c]] == 0 {
			want++
		}
	}
	if rel.Len() != want {
		t.Errorf("CS courses = %d, want %d", rel.Len(), want)
	}
}

func TestEvalJoinOfTwoPaths(t *testing.T) {
	u, _, src := fixture(t)
	// Professors joined with their department row via DName.
	profs := From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild()
	depts := From(u.Scheme, sitegen.DeptListPage).Unnest("DeptList").Follow("ToDept").MustBuild()
	j := &Join{L: profs, R: depts, Conds: []nested.EqCond{{Left: "ProfPage.DName", Right: "DeptPage.DName"}}}
	rel, err := Eval(j, u.Scheme, src)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != u.Params.Profs {
		t.Errorf("join len = %d, want %d (each prof matches its dept)", rel.Len(), u.Params.Profs)
	}
}

func TestEvalFollowSkipsNullLinks(t *testing.T) {
	// A scheme with an optional link: tuples with null links are dropped by
	// navigation rather than erroring.
	ws := adm.NewScheme()
	if err := ws.AddPage(&adm.PageScheme{Name: "A", Attrs: []nested.Field{
		{Name: "Next", Type: nested.Link("B"), Optional: true},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := ws.AddPage(&adm.PageScheme{Name: "B", Attrs: []nested.Field{
		{Name: "V", Type: nested.Text()},
	}}); err != nil {
		t.Fatal(err)
	}
	ws.AddEntryPoint("A", "urlA")
	in := adm.NewInstance(ws)
	if err := in.AddPage("A", nested.T(adm.URLAttr, nested.LinkValue("urlA"), "Next", nested.Null)); err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := From(ws, "A").Follow("Next").MustBuild()
	rel, err := Eval(e, ws, FetcherSource{F: privateSession(ms, ws, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 0 {
		t.Errorf("null link should navigate to nothing, got %d tuples", rel.Len())
	}
}

func TestEvalRename(t *testing.T) {
	u, _, src := fixture(t)
	e := &Rename{
		In: From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").MustBuild(),
		Map: map[string]string{
			"ProfListPage.ProfList.ProfName": "PName",
		},
	}
	rel, err := Eval(e, u.Scheme, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rel.Tuples()[0].Get("PName"); !ok {
		t.Error("rename not applied")
	}
}

func TestEvalRejectsExtScan(t *testing.T) {
	u, _, src := fixture(t)
	if _, err := Eval(&ExtScan{Relation: "R"}, u.Scheme, src); err == nil {
		t.Error("Eval of ExtScan should fail")
	}
}

func TestEvalEntryError(t *testing.T) {
	u, _, src := fixture(t)
	e := &EntryScan{Scheme: sitegen.ProfListPage, URL: "http://ghost/"}
	if _, err := Eval(e, u.Scheme, src); err == nil {
		t.Error("Eval with bad entry URL should fail")
	}
}

func TestExplainShapes(t *testing.T) {
	u, _, _ := fixture(t)
	left := From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").Unnest("CourseList").MustBuild()
	right := From(u.Scheme, sitegen.SessionListPage).Unnest("SesList").
		Where(nested.Eq("SessionListPage.SesList.Session", "Fall")).
		Follow("ToSes").Unnest("CourseList").MustBuild()
	j := &Join{L: left, R: right, Conds: []nested.EqCond{{
		Left:  "ProfPage.CourseList.ToCourse",
		Right: "SessionPage.CourseList.ToCourse",
	}}}
	plan := &Project{
		In:   &Follow{In: j, Link: "SessionPage.CourseList.ToCourse", Target: sitegen.CoursePage},
		Cols: []string{"CoursePage.CName", "CoursePage.Description"},
	}
	out := Explain(plan)
	for _, want := range []string{"π CoursePage.CName", "⋈", "→ ToCourse (CoursePage)", "entry ProfListPage", "entry SessionListPage", "◦ SesList", "σ "} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	// Both join branches must appear with tree connectors.
	if !strings.Contains(out, "├─") || !strings.Contains(out, "└─") {
		t.Errorf("explain should use tree connectors:\n%s", out)
	}
	// Rename and ext labels.
	r := &Rename{In: &ExtScan{Relation: "Professor"}, Map: map[string]string{"A": "B"}}
	if !strings.Contains(Explain(r), "ρ A→B") || !strings.Contains(Explain(r), "ext Professor") {
		t.Errorf("explain rename/ext wrong:\n%s", Explain(r))
	}
}

func TestEvalDeterministicAcrossRuns(t *testing.T) {
	u, _, _ := fixture(t)
	build := func() (*nested.Relation, error) {
		ums, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
		if err != nil {
			return nil, err
		}
		ms, err := site.NewMemSite(ums.Instance, nil)
		if err != nil {
			return nil, err
		}
		e := From(u.Scheme, sitegen.SessionListPage).
			Unnest("SesList").Follow("ToSes").Unnest("CourseList").Follow("ToCourse").
			Project("CoursePage.CName", "CoursePage.Type").
			MustBuild()
		return Eval(e, u.Scheme, FetcherSource{F: privateSession(ms, u.Scheme, 0)})
	}
	a, err := build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("evaluation not deterministic")
	}
	if a.Len() != 50 {
		t.Errorf("all courses = %d", a.Len())
	}
}
