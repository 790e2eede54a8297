package rewrite

import (
	"slices"
	"strings"
	"testing"

	"ulixes/internal/adm"
	"ulixes/internal/nalg"
	"ulixes/internal/nested"
	"ulixes/internal/sitegen"
)

// dropLinkConstraint removes the link constraint on the given attribute.
func dropLinkConstraint(ws *adm.Scheme, ref adm.AttrRef) {
	kept := ws.LinkCs[:0]
	for _, c := range ws.LinkCs {
		if !(c.Link.Scheme == ref.Scheme && c.Link.Path.Equal(ref.Path)) {
			kept = append(kept, c)
		}
	}
	ws.LinkCs = kept
}

// dropInclusion removes the inclusion constraint sub ⊆ super.
func dropInclusion(ws *adm.Scheme, sub, super adm.AttrRef) {
	kept := ws.InclCs[:0]
	for _, c := range ws.InclCs {
		if !(c.Sub.Scheme == sub.Scheme && c.Sub.Path.Equal(sub.Path) &&
			c.Super.Scheme == super.Scheme && c.Super.Path.Equal(super.Path)) {
			kept = append(kept, c)
		}
	}
	ws.InclCs = kept
}

// markOptional flags the attribute at the path as optional in place.
func markOptional(t *testing.T, ws *adm.Scheme, scheme string, path adm.Path) {
	t.Helper()
	fields := ws.Page(scheme).Attrs
	for i, step := range path {
		for j := range fields {
			if fields[j].Name != step {
				continue
			}
			if i == len(path)-1 {
				fields[j].Optional = true
				return
			}
			fields = fields[j].Type.Elem
			break
		}
	}
	t.Fatalf("markOptional: %s.%s not found", scheme, path)
}

func ref(scheme, path string) adm.AttrRef {
	return adm.AttrRef{Scheme: scheme, Path: adm.ParsePath(path)}
}

// TestRulesRequirePreconditions removes, for each constraint-driven rule,
// exactly the scheme fact the rule relies on, and requires the rule to stop
// firing on a plan it fires on under the full scheme.
func TestRulesRequirePreconditions(t *testing.T) {
	type tc struct {
		name string
		// plan builds the expression the rule fires at.
		plan func(ws *adm.Scheme) nalg.Expr
		// fire runs the rule and reports how many rewrites it produced.
		fire func(rw *Rewriter, e nalg.Expr) int
		// weaken removes the precondition from the scheme.
		weaken func(t *testing.T, ws *adm.Scheme)
	}
	cases := []tc{
		{
			name: "rule5-needs-non-optional-link",
			plan: func(ws *adm.Scheme) nalg.Expr {
				return &nalg.Project{
					In:   nalg.From(ws, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild(),
					Cols: []string{"ProfListPage.ProfList.ProfName"},
				}
			},
			fire: func(rw *Rewriter, e nalg.Expr) int { return len(rw.rule5(e)) },
			weaken: func(t *testing.T, ws *adm.Scheme) {
				markOptional(t, ws, sitegen.ProfListPage, adm.ParsePath("ProfList.ToProf"))
			},
		},
		{
			name: "rule6-needs-link-constraint",
			plan: func(ws *adm.Scheme) nalg.Expr {
				nav := nalg.From(ws, sitegen.SessionListPage).Unnest("SesList").Follow("ToSes").MustBuild()
				return &nalg.Select{In: nav, Pred: nested.Eq("SessionPage.Session", "Fall")}
			},
			fire: func(rw *Rewriter, e nalg.Expr) int { return len(rw.rule6(e)) },
			weaken: func(t *testing.T, ws *adm.Scheme) {
				dropLinkConstraint(ws, ref(sitegen.SessionListPage, "SesList.ToSes"))
			},
		},
		{
			name: "rule7-needs-link-constraint",
			plan: func(ws *adm.Scheme) nalg.Expr {
				return &nalg.Project{
					In:   nalg.From(ws, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild(),
					Cols: []string{"ProfPage.Name"},
				}
			},
			fire: func(rw *Rewriter, e nalg.Expr) int { return len(rw.rule7(e)) },
			weaken: func(t *testing.T, ws *adm.Scheme) {
				dropLinkConstraint(ws, ref(sitegen.ProfListPage, "ProfList.ToProf"))
			},
		},
		{
			name: "rule8-anchor-needs-link-constraint",
			plan: func(ws *adm.Scheme) nalg.Expr {
				left := nalg.From(ws, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").Unnest("CourseList").MustBuild()
				right := nalg.From(ws, sitegen.SessionListPage).Unnest("SesList").Follow("ToSes").Unnest("CourseList").Follow("ToCourse").MustBuild()
				return &nalg.Join{L: left, R: right, Conds: []nested.EqCond{{
					Left:  "ProfPage.CourseList.CName",
					Right: "CoursePage.CName",
				}}}
			},
			fire: func(rw *Rewriter, e nalg.Expr) int { return len(rw.rule8(e)) },
			weaken: func(t *testing.T, ws *adm.Scheme) {
				dropLinkConstraint(ws, ref(sitegen.ProfPage, "CourseList.ToCourse"))
			},
		},
		{
			name: "rule9-needs-inclusion",
			plan: func(ws *adm.Scheme) nalg.Expr {
				full := nalg.From(ws, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild()
				dept := nalg.From(ws, sitegen.DeptListPage).Unnest("DeptList").Follow("ToDept").Unnest("ProfList").MustBuild()
				return &nalg.Join{L: full, R: dept, Conds: []nested.EqCond{{
					Left:  "ProfPage.Name",
					Right: "DeptPage.ProfList.ProfName",
				}}}
			},
			fire: func(rw *Rewriter, e nalg.Expr) int { return len(rw.rule9(e)) },
			weaken: func(t *testing.T, ws *adm.Scheme) {
				dropInclusion(ws,
					ref(sitegen.DeptPage, "ProfList.ToProf"),
					ref(sitegen.ProfListPage, "ProfList.ToProf"))
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			full := sitegen.UniversityScheme()
			rw := &Rewriter{WS: full, Rules: AllRules}
			e := c.plan(full)
			if c.fire(rw, e) == 0 {
				t.Fatal("rule should fire under the full scheme")
			}

			weak := sitegen.UniversityScheme()
			c.weaken(t, weak)
			rwWeak := &Rewriter{WS: weak, Rules: AllRules}
			if n := c.fire(rwWeak, c.plan(weak)); n != 0 {
				t.Errorf("rule fired %d times without its precondition", n)
			}
		})
	}
}

// TestPreconditionValidate records preconditions under the full scheme via
// the audit trail and requires Validate to reject each one against the
// scheme with the relied-on fact removed.
func TestPreconditionValidate(t *testing.T) {
	full := sitegen.UniversityScheme()
	rw := &Rewriter{WS: full, Rules: AllRules, RecordAudit: true}

	// Fire Rule 5, Rule 6 and Rule 9 through the public entry point.
	nav5 := &nalg.Project{
		In:   nalg.From(full, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild(),
		Cols: []string{"ProfListPage.ProfList.ProfName"},
	}
	sel6 := &nalg.Select{
		In:   nalg.From(full, sitegen.SessionListPage).Unnest("SesList").Follow("ToSes").MustBuild(),
		Pred: nested.Eq("SessionPage.Session", "Fall"),
	}
	join9 := &nalg.Join{
		L: nalg.From(full, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild(),
		R: nalg.From(full, sitegen.DeptListPage).Unnest("DeptList").Follow("ToDept").Unnest("ProfList").MustBuild(),
		Conds: []nested.EqCond{{
			Left:  "ProfPage.Name",
			Right: "DeptPage.ProfList.ProfName",
		}},
	}
	rw.Expand([]nalg.Expr{nav5, sel6, join9}, 64)

	byRule := make(map[Rule]*Precondition)
	for _, a := range rw.Audit() {
		if a.Pre != nil && byRule[a.Rule] == nil {
			byRule[a.Rule] = a.Pre
		}
	}
	for _, r := range []Rule{Rule5, Rule6, Rule9} {
		if byRule[r] == nil {
			t.Fatalf("no audited application of %s", r)
		}
	}

	weaken := map[Rule]func(*adm.Scheme){
		Rule5: func(ws *adm.Scheme) {
			markOptional(t, ws, sitegen.ProfListPage, adm.ParsePath("ProfList.ToProf"))
		},
		Rule6: func(ws *adm.Scheme) {
			dropLinkConstraint(ws, ref(sitegen.SessionListPage, "SesList.ToSes"))
		},
		Rule9: func(ws *adm.Scheme) {
			dropInclusion(ws,
				ref(sitegen.DeptPage, "ProfList.ToProf"),
				ref(sitegen.ProfListPage, "ProfList.ToProf"))
		},
	}
	for r, pre := range byRule {
		if err := pre.Validate(full); err != nil {
			t.Errorf("%s precondition should validate against the full scheme: %v", r, err)
		}
		w, ok := weaken[r]
		if !ok {
			continue
		}
		ws := sitegen.UniversityScheme()
		w(ws)
		if err := byRule[r].Validate(ws); err == nil {
			t.Errorf("%s precondition should fail against the weakened scheme", r)
		} else if !strings.Contains(err.Error(), "relied on") {
			t.Errorf("%s: unexpected error wording: %v", r, err)
		}
	}

	// A covering precondition over a restricted navigation must fail.
	restricted := &Precondition{
		Rule: Rule9,
		Covering: &nalg.Select{
			In:   nalg.From(full, sitegen.ProfListPage).Unnest("ProfList").MustBuild(),
			Pred: nested.Eq("ProfListPage.ProfList.ProfName", "x"),
		},
	}
	if restricted.Validate(full) == nil {
		t.Error("selection inside the covering navigation should fail validation")
	}
}

// TestResetForgetsTheLastSearch runs one rewriter, interning into one
// memo, over the same plans under schemes that disagree on facts the rules
// rely on, resetting both between searches, and requires every search to
// decide what a new rewriter decides. Each search interns the same
// expressions in the same order into the memory the last one used, so a
// cache that survived Reset would answer for a node or a join at the same
// address with the last scheme's facts.
func TestResetForgetsTheLastSearch(t *testing.T) {
	full := sitegen.UniversityScheme()
	// Without ProfPage.ToDept ⊆ DeptListPage.DeptList.ToDept the department
	// list no longer reaches every DeptPage: it stops being a covering
	// navigation.
	noCover := sitegen.UniversityScheme()
	dropInclusion(noCover, ref(sitegen.ProfPage, "ToDept"), ref(sitegen.DeptListPage, "DeptList.ToDept"))
	// Without this link constraint Rule 8 finds no pointer column.
	noAnchor := sitegen.UniversityScheme()
	dropLinkConstraint(noAnchor, ref(sitegen.ProfPage, "CourseList.ToCourse"))

	depts := func(ws *adm.Scheme) nalg.Expr {
		return nalg.From(ws, sitegen.DeptListPage).Unnest("DeptList").Follow("ToDept").MustBuild()
	}
	seeds := func(ws *adm.Scheme) []nalg.Expr {
		profs := nalg.From(ws, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").Unnest("CourseList").MustBuild()
		sessions := nalg.From(ws, sitegen.SessionListPage).Unnest("SesList").Follow("ToSes").Unnest("CourseList").Follow("ToCourse").MustBuild()
		return []nalg.Expr{&nalg.Join{L: profs, R: sessions, Conds: []nested.EqCond{{Left: "ProfPage.CourseList.CName", Right: "CoursePage.CName"}}}}
	}
	expand := func(rw *Rewriter, ws *adm.Scheme) []string {
		var out []string
		for _, p := range rw.Expand(seeds(ws), 256) {
			out = append(out, p.String())
		}
		return out
	}
	fresh := func(ws *adm.Scheme) []string { return expand(&Rewriter{WS: ws, Rules: AllRules}, ws) }
	if coveringChain(full, depts(full)) == coveringChain(noCover, depts(noCover)) || slices.Equal(fresh(full), fresh(noAnchor)) {
		t.Fatal("the weakened schemes must change what the rules decide")
	}

	memo := nalg.NewMemo(full)
	rw := &Rewriter{Rules: AllRules}
	names := map[*adm.Scheme]string{full: "full", noCover: "noCover", noAnchor: "noAnchor"}
	for _, ws := range []*adm.Scheme{full, noCover, full, noAnchor, full, noCover, noAnchor} {
		memo.Reset(ws)
		rw.Reset(ws, memo)
		if got, want := rw.coveringNav(depts(ws)), coveringChain(ws, depts(ws)); got != want {
			t.Errorf("%s scheme after Reset: the department list covering is %v, want %v", names[ws], got, want)
		}
		if got, want := expand(rw, ws), fresh(ws); !slices.Equal(got, want) {
			t.Errorf("%s scheme after Reset: %d plans, a new rewriter %d", names[ws], len(got), len(want))
		}
	}
}
