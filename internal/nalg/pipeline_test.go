package nalg

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
	"ulixes/internal/pagecache"
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

// latchServer holds every GET of the held URLs until target of them are in
// flight together, or two seconds have passed, then lets every GET through;
// it records the peak number in flight.
type latchServer struct {
	*site.MemSite
	held   map[string]bool
	target int
	open   chan struct{}
	once   sync.Once
	timer  *time.Timer

	mu             sync.Mutex
	inflight, peak int
}

func newLatchServer(ms *site.MemSite, held []string, target int) *latchServer {
	s := &latchServer{MemSite: ms, held: make(map[string]bool), target: target, open: make(chan struct{})}
	for _, u := range held {
		s.held[u] = true
	}
	s.timer = time.AfterFunc(2*time.Second, s.release)
	return s
}

func (s *latchServer) release() { s.once.Do(func() { close(s.open) }) }

func (s *latchServer) Get(url string) (site.Page, error) {
	if s.held[url] {
		s.mu.Lock()
		s.inflight++
		s.peak = max(s.peak, s.inflight)
		if s.inflight >= s.target {
			s.release()
		}
		s.mu.Unlock()
		<-s.open
		defer func() {
			s.mu.Lock()
			s.inflight--
			s.mu.Unlock()
		}()
	}
	return s.MemSite.Get(url) //lint:allow fetchgate latching Server double delegates
}

func (s *latchServer) peakInFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

// TestFollowTasksAreOneRound: a Follow stage cuts a fetch task per Workers
// new links, so each task is one round trip and the Workers tasks the
// pipeline admits keep min(links, Workers²) GETs in flight on a store
// without MaxInFlight; the engine's private store still bounds the query at
// Workers. Tasks cut per 64-tuple batch put 16 GETs in flight for the 120
// links of ProfListPage. The answer and the ledger are the sequential
// evaluator's at every worker count.
func TestFollowTasksAreOneRound(t *testing.T) {
	u, err := sitegen.GenerateUniversity(sitegen.UniversityParams{Courses: 50, Profs: 120, Depts: 8})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	var links []string
	for _, tup := range u.Instance.Relation(sitegen.ProfPage).Tuples() {
		links = append(links, tup.MustGet(adm.URLAttr).String())
	}
	if len(links) != 120 {
		t.Fatalf("ProfListPage lists %d professors, want 120", len(links))
	}
	e := From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild()

	const workers = 8
	for _, tc := range []struct {
		store       string
		maxInFlight int
		want        int
	}{
		{"no MaxInFlight", 0, min(len(links), workers*workers)},
		{"private", workers, workers},
	} {
		srv := newLatchServer(ms, links, tc.want)
		c := pagecache.New(srv, u.Scheme, pagecache.Config{DefaultTTL: pagecache.Forever, Workers: workers, MaxInFlight: tc.maxInFlight})
		rel, err := EvalWithOptions(e, u.Scheme, FetcherSource{F: c.NewSession(pagecache.SessionOptions{})},
			EvalOptions{Pipelined: true, Workers: workers})
		srv.timer.Stop()
		if err != nil {
			t.Fatalf("%s store: %v", tc.store, err)
		}
		if rel.Len() != len(links) {
			t.Errorf("%s store: %d tuples, want %d", tc.store, rel.Len(), len(links))
		}
		if got := srv.peakInFlight(); got != tc.want {
			t.Errorf("%s store: peak %d GETs in flight, want %d", tc.store, got, tc.want)
		}
	}

	seq := privateSession(ms, u.Scheme, 0)
	want, err := Eval(e, u.Scheme, FetcherSource{F: seq})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4, 16} {
		sess := privateSession(ms, u.Scheme, w)
		got, err := EvalWithOptions(e, u.Scheme, FetcherSource{F: sess}, EvalOptions{Pipelined: true, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if got.String() != want.String() {
			t.Errorf("workers=%d: pipelined answer differs from sequential", w)
		}
		if sess.Stats() != seq.Stats() {
			t.Errorf("workers=%d: ledger %+v, sequential %+v", w, sess.Stats(), seq.Stats())
		}
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

// TestPreparedRunsPlansOfItsShape runs one Prepared over a plan of the same
// shape with another selection constant, as the plan cache does: the answer
// equals a fresh evaluation of that plan. A plan of another shape is
// refused instead of run with another plan's build sides and kept columns.
func TestPreparedRunsPlansOfItsShape(t *testing.T) {
	u, ms, _ := fixture(t)
	dept := func(name string) Expr {
		return From(u.Scheme, sitegen.DeptListPage).
			Unnest("DeptList").
			Where(nested.Eq("DeptListPage.DeptList.DeptName", name)).
			Follow("ToDept").
			Unnest("ProfList").
			MustBuild()
	}
	prep, err := Prepare(dept("Computer Science"), u.Scheme, nil)
	if err != nil {
		t.Fatal(err)
	}
	other := dept(sitegen.DeptName(1))
	want, err := Eval(other, u.Scheme, FetcherSource{F: privateSession(ms, u.Scheme, 0)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := prep.Run(other, FetcherSource{F: privateSession(ms, u.Scheme, 4)}, EvalOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 || got.String() != want.String() {
		t.Fatalf("prepared run of a same-shape plan:\ngot:  %s\nwant: %s", got, want)
	}

	// One plan with more nodes, one with as many but other operators.
	courses := From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").Unnest("CourseList").
		Project("ProfPage.CourseList.CName").MustBuild()
	for _, e := range []Expr{pipelinePlans(t, u)["join of paths"], courses} {
		_, err = prep.Run(e, FetcherSource{F: privateSession(ms, u.Scheme, 4)}, EvalOptions{})
		if err == nil || !strings.Contains(err.Error(), "shape") {
			t.Fatalf("running a plan of another shape: err = %v, want a shape error", err)
		}
	}
}

// TestPrepareChoosesBuildSides fixes each join's build side once, from the
// estimates: the smaller estimated operand, the right one without
// estimates for both.
func TestPrepareChoosesBuildSides(t *testing.T) {
	u, _, _ := fixture(t)
	join := pipelinePlans(t, u)["join of paths"].(*Join)
	for _, tc := range []struct {
		name string
		est  func(Expr) (float64, bool)
		want bool
	}{
		{"no estimator", nil, false},
		{"left smaller", func(x Expr) (float64, bool) {
			if x == join.L {
				return 1, true
			}
			return 2, true
		}, true},
		{"right smaller", func(x Expr) (float64, bool) {
			if x == join.L {
				return 2, true
			}
			return 1, true
		}, false},
		{"no estimate", func(Expr) (float64, bool) { return 0, false }, false},
	} {
		p, err := Prepare(join, u.Scheme, tc.est)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.nodes[0].buildLeft; got != tc.want {
			t.Errorf("%s: build left %v, want %v", tc.name, got, tc.want)
		}
	}
}

// followCounter counts the FollowPages calls that reach a source: the
// follow accesses that took a fetch task.
type followCounter struct {
	Source
	mu      sync.Mutex
	follows int
}

func (c *followCounter) FollowPages(scheme string, urls []string) ([]nested.Tuple, error) {
	c.mu.Lock()
	c.follows++
	c.mu.Unlock()
	return c.Source.FollowPages(scheme, urls)
}

// warmSession is a session on a store that already holds every page of the
// site, fresh.
func warmSession(t *testing.T, ms *site.MemSite, ws *adm.Scheme, opts pagecache.SessionOptions) *pagecache.Session {
	t.Helper()
	c := pagecache.New(ms, ws, pagecache.Config{DefaultTTL: pagecache.Forever})
	for _, url := range ms.URLs() {
		scheme, _ := ms.SchemeOf(url)
		if _, err := c.NewSession(pagecache.SessionOptions{}).FetchCtx(context.Background(), scheme, url); err != nil {
			t.Fatal(err)
		}
	}
	return c.NewSession(opts)
}

// TestStoreHitsTakeNoFetchTask: over a source that has every page at once,
// the pipelined evaluator resolves every follow on its producers — no
// FollowPages call, so no fetch task — and answers as Eval does, with the
// same ledger.
func TestStoreHitsTakeNoFetchTask(t *testing.T) {
	u, ms, _ := fixture(t)
	for name, e := range pipelinePlans(t, u) {
		seq := warmSession(t, ms, u.Scheme, pagecache.SessionOptions{})
		want, err := Eval(e, u.Scheme, FetcherSource{F: seq})
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		for _, workers := range []int{1, 4, 16} {
			sess := warmSession(t, ms, u.Scheme, pagecache.SessionOptions{})
			src := &followCounter{Source: FetcherSource{F: sess}}
			got, err := EvalWithOptions(e, u.Scheme, src, EvalOptions{Pipelined: true, Workers: workers, BatchSize: 3})
			if err != nil {
				t.Fatalf("%s w=%d: %v", name, workers, err)
			}
			if got.String() != want.String() {
				t.Errorf("%s w=%d: pipelined answer differs from sequential", name, workers)
			}
			if src.follows != 0 {
				t.Errorf("%s w=%d: %d FollowPages calls over an all-hit store, want 0", name, workers, src.follows)
			}
			if sess.Stats() != seq.Stats() {
				t.Errorf("%s w=%d: ledger %+v, sequential %+v", name, workers, sess.Stats(), seq.Stats())
			}
		}
	}
}

// TestInlineHitOverrunsBudget: a page budget that the store's hits overrun
// fails the pipelined evaluation with ErrBudgetExceeded, although no
// access ever reached a fetch task.
func TestInlineHitOverrunsBudget(t *testing.T) {
	u, ms, _ := fixture(t)
	e := From(u.Scheme, sitegen.ProfListPage).Unnest("ProfList").Follow("ToProf").MustBuild()
	sess := warmSession(t, ms, u.Scheme, pagecache.SessionOptions{PageBudget: 5})
	src := &followCounter{Source: FetcherSource{F: sess}}
	_, err := EvalWithOptions(e, u.Scheme, src, EvalOptions{Pipelined: true, Workers: 4})
	if !errors.Is(err, pagecache.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if src.follows != 0 {
		t.Errorf("%d FollowPages calls: the overrun should come from an inline hit", src.follows)
	}
}
