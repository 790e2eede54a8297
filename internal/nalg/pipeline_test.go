package nalg

import (
	"errors"
	"strings"
	"testing"

	"ulixes/internal/nested"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
)

// pipelinePlans are plan shapes covering every pipelined operator: entry
// scan, unnest, select, project, rename, deep follow chains and joins of
// two navigation paths.
func pipelinePlans(t *testing.T, u *sitegen.University) map[string]Expr {
	t.Helper()
	ws := u.Scheme
	deep := From(ws, sitegen.DeptListPage).
		Unnest("DeptList").
		Where(nested.Eq("DeptListPage.DeptList.DeptName", "Computer Science")).
		Follow("ToDept").
		Unnest("ProfList").
		Follow("ToProf").
		Unnest("CourseList").
		Follow("ToCourse").
		Project("CoursePage.CName", "CoursePage.Description").
		MustBuild()
	profs := From(ws, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild()
	depts := From(ws, sitegen.DeptListPage).Unnest("DeptList").Follow("ToDept").MustBuild()
	join := &Join{L: profs, R: depts, Conds: []nested.EqCond{{Left: "ProfPage.DName", Right: "DeptPage.DName"}}}
	renamed := &Rename{
		In:  From(ws, sitegen.ProfListPage).Unnest("ProfList").MustBuild(),
		Map: map[string]string{"ProfListPage.ProfList.ProfName": "Name"},
	}
	return map[string]Expr{
		"entry only":    From(ws, sitegen.ProfListPage).MustBuild(),
		"unnest":        From(ws, sitegen.ProfListPage).Unnest("ProfList").MustBuild(),
		"follow":        From(ws, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild(),
		"deep chain":    deep,
		"join of paths": join,
		"rename":        renamed,
	}
}

// TestPipelinedMatchesSequential is the core equivalence property: for
// every plan shape and worker count, the pipelined evaluator returns the
// same relation and performs the same number of page accesses as the
// sequential evaluator.
func TestPipelinedMatchesSequential(t *testing.T) {
	u, ms, _ := fixture(t)
	for name, e := range pipelinePlans(t, u) {
		f := privateSession(ms, u.Scheme, 0)
		want, err := Eval(e, u.Scheme, FetcherSource{F: f})
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		wantPages := f.Stats().Fetches
		for _, workers := range []int{1, 4, 16} {
			for _, batch := range []int{1, 3, 64} {
				pf := privateSession(ms, u.Scheme, workers)
				got, err := EvalWithOptions(e, u.Scheme, FetcherSource{F: pf},
					EvalOptions{Pipelined: true, Workers: workers, BatchSize: batch})
				if err != nil {
					t.Fatalf("%s w=%d b=%d: pipelined: %v", name, workers, batch, err)
				}
				if got.String() != want.String() {
					t.Errorf("%s w=%d b=%d: pipelined answer differs\ngot:  %s\nwant: %s",
						name, workers, batch, got, want)
				}
				if pf.Stats().Fetches != wantPages {
					t.Errorf("%s w=%d b=%d: pipelined fetched %d pages, sequential %d",
						name, workers, batch, pf.Stats().Fetches, wantPages)
				}
			}
		}
	}
}

// TestPipelinedNotPipelinedFallback verifies EvalWithOptions without
// Pipelined is exactly Eval.
func TestPipelinedNotPipelinedFallback(t *testing.T) {
	u, _, src := fixture(t)
	e := From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").MustBuild()
	seq, err := Eval(e, u.Scheme, src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvalWithOptions(e, u.Scheme, src, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != seq.String() {
		t.Error("non-pipelined options should use the sequential evaluator")
	}
}

// TestPipelinedRejectsExtScan checks error propagation from a leaf stage.
func TestPipelinedRejectsExtScan(t *testing.T) {
	u, ms, _ := fixture(t)
	profs := From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild()
	j := &Join{L: &ExtScan{Relation: "Professor"}, R: profs}
	f := privateSession(ms, u.Scheme, 0)
	_, err := EvalWithOptions(j, u.Scheme, FetcherSource{F: f},
		EvalOptions{Pipelined: true})
	if err == nil || !strings.Contains(err.Error(), "external") {
		t.Errorf("err = %v, want external-relation failure", err)
	}
}

// brokenServer fails GETs on URLs of one page-scheme, so errors surface
// mid-stream inside a Follow stage.
type brokenServer struct {
	*site.MemSite
	badPrefix string
}

var errBroken = errors.New("broken page")

func (s *brokenServer) Get(url string) (site.Page, error) {
	if strings.Contains(url, s.badPrefix) {
		return site.Page{}, errBroken
	}
	return s.MemSite.Get(url) //lint:allow fetchgate fault-injecting Server double delegates
}

// TestPipelinedErrorPropagation injects fetch failures deep in a follow
// chain and requires the evaluation to fail fast rather than hang or
// return a partial answer.
func TestPipelinedErrorPropagation(t *testing.T) {
	u, ms, _ := fixture(t)
	e := From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild()
	srv := &brokenServer{MemSite: ms, badPrefix: "prof"}
	f := privateSession(srv, u.Scheme, 4)
	_, err := EvalWithOptions(e, u.Scheme, FetcherSource{F: f},
		EvalOptions{Pipelined: true, Workers: 4, BatchSize: 2})
	if !errors.Is(err, errBroken) {
		t.Errorf("err = %v, want the injected fetch failure", err)
	}
}

// TestPipelinedDeterministicAcrossRuns re-runs a pipelined evaluation and
// expects identical rendered results every time (set semantics hide the
// nondeterministic arrival order).
func TestPipelinedDeterministicAcrossRuns(t *testing.T) {
	u, ms, _ := fixture(t)
	e := pipelinePlans(t, u)["deep chain"]
	var first string
	for i := 0; i < 5; i++ {
		f := privateSession(ms, u.Scheme, 0)
		rel, err := EvalWithOptions(e, u.Scheme, FetcherSource{F: f},
			EvalOptions{Pipelined: true, Workers: 8, BatchSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = rel.String()
		} else if rel.String() != first {
			t.Fatalf("run %d differs from run 0", i)
		}
	}
}
