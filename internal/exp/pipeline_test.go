package exp

import (
	"testing"
	"time"

	"ulixes/internal/engine"
	"ulixes/internal/nalg"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
	"ulixes/internal/stats"
	"ulixes/internal/view"
)

var equivalenceWorkers = []int{1, 4, 16}

// assertEquivalent runs a plan sequentially and pipelined at several worker
// counts, requiring byte-identical relations and identical page-access
// counts every time.
func assertEquivalent(t *testing.T, eng *engine.Engine, name string, plan nalg.Expr) {
	t.Helper()
	want, wantStats, err := eng.ExecuteOpts(plan, engine.ExecOptions{Workers: 1, Pipelined: false})
	if err != nil {
		t.Fatalf("%s: sequential: %v", name, err)
	}
	for _, w := range equivalenceWorkers {
		got, st, err := eng.ExecuteOpts(plan, engine.ExecOptions{Workers: w, Pipelined: true})
		if err != nil {
			t.Fatalf("%s workers=%d: pipelined: %v", name, w, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s workers=%d: pipelined answer differs from sequential", name, w)
		}
		if st.Pages != wantStats.Pages {
			t.Errorf("%s workers=%d: pipelined fetched %d pages, sequential %d",
				name, w, st.Pages, wantStats.Pages)
		}
		if st.PeakInFlight > w {
			t.Errorf("%s workers=%d: peak in-flight %d exceeds the bound", name, w, st.PeakInFlight)
		}
	}
}

// TestPipelinedEquivalenceQuerySuite proves the pipelined evaluator is
// answer- and cost-equivalent to the sequential one on the optimizer's
// chosen plan for every query of the suite (E4's workload).
func TestPipelinedEquivalenceQuerySuite(t *testing.T) {
	_, _, eng, err := univFixture(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range QuerySuite {
		res, err := eng.Opt.Optimize(mustCQ(q.Query))
		if err != nil {
			t.Fatalf("%s: optimize: %v", q.Name, err)
		}
		assertEquivalent(t, eng, q.Name, res.Best.Expr)
	}
}

// TestPipelinedEquivalencePaperPlans covers the paper's explicit plans of
// Examples 7.1 and 7.2 — both strategies, join-heavy and chase-heavy.
func TestPipelinedEquivalencePaperPlans(t *testing.T) {
	_, _, eng, err := univFixture(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	ws := eng.Views.Scheme
	for name, plan := range map[string]nalg.Expr{
		"7.1 pointer-join":  Plan71PointerJoin(ws),
		"7.1 pointer-chase": Plan71PointerChase(ws),
		"7.2 pointer-join":  Plan72PointerJoin(ws),
		"7.2 pointer-chase": Plan72PointerChase(ws),
	} {
		assertEquivalent(t, eng, name, plan)
	}
}

// TestPipelinedEquivalenceBibliography exercises the wide-fan-out author
// sweep (E1 path 4) on the bibliography site.
func TestPipelinedEquivalenceBibliography(t *testing.T) {
	params := sitegen.BibliographyParams{
		Authors: 120, Confs: 8, DBConfs: 3, Years: 4, PapersPerEdition: 6,
		AuthorsPerPaper: 2, Seed: 1998,
	}
	b, err := sitegen.GenerateBibliography(params)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(b.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(view.BibliographyView(b.Scheme), ms, stats.CollectInstance(b.Instance))
	assertEquivalent(t, eng, "author sweep", BibAuthorPlan(b))
}

// TestPipelinedEquivalenceMatview runs the same query pipelined and
// sequentially against two independently materialized stores of the same
// site, after identical updates: answers, light connections and downloads
// must all match.
func TestPipelinedEquivalenceMatview(t *testing.T) {
	u, ms, _, err := univFixture(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	st := stats.CollectInstance(u.Instance)
	views := view.UniversityView(u.Scheme)

	storeSeq, err := engine.Materialize(ms, u.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	storePipe, err := engine.Materialize(ms, u.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	// Touch a slice of professor pages so the query must re-download some.
	urls := u.Instance.Relation(sitegen.ProfPage).Tuples()
	for i, tup := range urls {
		if i%3 == 0 {
			v, _ := tup.Get("URL")
			ms.Touch(v.String())
		}
	}

	seq := engine.New(views, ms, st)
	seq.Exec = engine.ExecOptions{Workers: 1, Cache: storeSeq}
	pipe := engine.New(views, ms, st)
	pipe.Exec = engine.ExecOptions{Pipelined: true, Workers: 8, Cache: storePipe}

	const query = "SELECT p.PName, p.Email FROM Professor p WHERE p.Rank = 'Full'"
	wantAns, err := seq.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	gotAns, err := pipe.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if gotAns.Result.String() != wantAns.Result.String() {
		t.Error("pipelined matview answer differs from sequential")
	}
	if gotAns.Exec.LightConnections != wantAns.Exec.LightConnections {
		t.Errorf("light connections: pipelined %d, sequential %d",
			gotAns.Exec.LightConnections, wantAns.Exec.LightConnections)
	}
	if gotAns.Exec.Pages != wantAns.Exec.Pages {
		t.Errorf("downloads: pipelined %d, sequential %d",
			gotAns.Exec.Pages, wantAns.Exec.Pages)
	}
}

// TestP1PipelineSpeedup is the acceptance benchmark in test form: with
// simulated per-download latency, pipelined execution at 8 workers must be
// at least twice as fast as sequential, with identical pages.
func TestP1PipelineSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("latency simulation")
	}
	params := sitegen.BibliographyParams{
		Authors: 200, Confs: 8, DBConfs: 3, Years: 4, PapersPerEdition: 6,
		AuthorsPerPaper: 2, Seed: 1998,
	}
	b, err := sitegen.GenerateBibliography(params)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(b.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	ms.SetLatency(2 * time.Millisecond)
	eng := engine.New(view.BibliographyView(b.Scheme), ms, stats.CollectInstance(b.Instance))
	plan := BibAuthorPlan(b)

	_, seqStats, err := eng.ExecuteOpts(plan, engine.ExecOptions{Workers: 1, Pipelined: false})
	if err != nil {
		t.Fatal(err)
	}
	_, pipeStats, err := eng.ExecuteOpts(plan, engine.ExecOptions{Workers: 8, Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	if pipeStats.Pages != seqStats.Pages {
		t.Fatalf("pages: pipelined %d, sequential %d", pipeStats.Pages, seqStats.Pages)
	}
	if pipeStats.Wall*2 > seqStats.Wall {
		t.Errorf("pipelined at 8 workers took %v vs sequential %v — less than the required 2× speedup",
			pipeStats.Wall, seqStats.Wall)
	}
}
