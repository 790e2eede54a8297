package vanswer

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"ulixes/internal/cq"
	"ulixes/internal/engine"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
	"ulixes/internal/stats"
	"ulixes/internal/view"
)

// manualClock is a mutex-protected settable time source.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func newManualClock() *manualClock {
	return &manualClock{t: time.Date(2000, time.January, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// fixture builds the paper-sized university site, a live engine over it, and
// a view manager sharing the same site and registry.
func fixture(t *testing.T, cfg ManagerConfig) (*site.MemSite, *engine.Engine, *Manager) {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	views := view.UniversityView(u.Scheme)
	eng := engine.New(views, ms, stats.CollectInstance(u.Instance))
	return ms, eng, NewManager(ms, views, cfg)
}

func parse(t *testing.T, src string) *cq.Query {
	t.Helper()
	q, err := cq.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestAnswerByteIdentical pins the central soundness claim: for every query
// shape the rewriter accepts, the answer is byte-identical to what the live
// plan computes — same tuples, same column names, same set semantics.
func TestAnswerByteIdentical(t *testing.T) {
	_, eng, m := fixture(t, ManagerConfig{})
	defs := []Def{
		{Relation: "Professor"},
		{Relation: "Course"},
		{Relation: "CourseInstructor"},
		{Relation: "Dept"},
	}
	kept, err := m.Apply(defs)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != len(defs) {
		t.Fatalf("applied %d of %d definitions", len(kept), len(defs))
	}
	queries := []string{
		"SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'",
		"SELECT p.PName, p.Email FROM Professor p",
		"SELECT * FROM Dept d",
		"SELECT * FROM Professor p WHERE p.Rank = 'Associate'",
		"SELECT c.CName, c.Session FROM Course c WHERE c.Session = 'Fall'",
		"SELECT p.PName AS Who, p.Rank FROM Professor p",
		"SELECT ci.CName, p.Email FROM CourseInstructor ci, Professor p WHERE ci.PName = p.PName AND p.Rank = 'Full'",
		"SELECT * FROM CourseInstructor ci, Professor p WHERE ci.PName = p.PName",
	}
	for _, src := range queries {
		q := parse(t, src)
		rel, ok, err := m.TryAnswer(q)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !ok {
			t.Fatalf("%s: rewriter declined, want a view answer", src)
		}
		live, err := eng.QueryCQ(parse(t, src))
		if err != nil {
			t.Fatalf("%s: live: %v", src, err)
		}
		if got, want := rel.String(), live.Result.String(); got != want {
			t.Errorf("%s:\nview answer:\n%s\nlive answer:\n%s", src, got, want)
		}
	}
	c := m.Counters()
	if c.Hits != len(queries) || c.Misses != 0 {
		t.Errorf("counters %+v, want %d hits and no misses", c, len(queries))
	}
}

// TestWeakerBindingPatternRejected is the unsound-rewrite case the paper's
// containment condition guards against: a view bound to Rank='Full' holds
// only the full professors, so it must NOT answer an unbound professor scan
// or a query bound to a different rank — both must fall back to the live
// plan. A query the binding pattern IS implied by is answered, and
// byte-identically.
func TestWeakerBindingPatternRejected(t *testing.T) {
	_, eng, m := fixture(t, ManagerConfig{})
	if _, err := m.Apply([]Def{{Relation: "Professor", Bindings: []Binding{{Attr: "Rank", Val: "Full"}}}}); err != nil {
		t.Fatal(err)
	}
	eng.ViewAnswers = m

	for _, src := range []string{
		"SELECT p.PName FROM Professor p",
		"SELECT p.PName FROM Professor p WHERE p.Rank = 'Assistant'",
	} {
		q := parse(t, src)
		if _, ok, err := m.TryAnswer(q); ok || err != nil {
			t.Fatalf("%s: ok=%v err=%v, want a sound decline", src, ok, err)
		}
		// The engine falls back to the live plan and navigates.
		ans, err := eng.QueryCQ(parse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		if ans.FromView || ans.Exec.AnsweredFromView {
			t.Fatalf("%s: answered from an unsound view", src)
		}
		if ans.Exec.Pages == 0 {
			t.Fatalf("%s: live fallback downloaded nothing", src)
		}
	}
	c := m.Counters()
	if c.BindingRejections < 2 {
		t.Errorf("BindingRejections = %d, want >= 2", c.BindingRejections)
	}
	if c.Hits != 0 {
		t.Errorf("Hits = %d, want 0", c.Hits)
	}

	// The implied case still works, and matches the live answer.
	src := "SELECT p.PName, p.Email FROM Professor p WHERE p.Rank = 'Full'"
	rel, ok, err := m.TryAnswer(parse(t, src))
	if err != nil || !ok {
		t.Fatalf("bound query: ok=%v err=%v", ok, err)
	}
	live, err := eng.QueryCQ(parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if rel.String() != live.Result.String() {
		t.Error("bound-view answer differs from the live answer")
	}
}

// TestStalePastHorizonRejected: a view older than the freshness horizon is
// unusable — the query falls back to the live plan — unless stale serving is
// explicitly allowed.
func TestStalePastHorizonRejected(t *testing.T) {
	clock := newManualClock()
	_, eng, m := fixture(t, ManagerConfig{
		Rewriter: Config{Horizon: time.Hour, Clock: clock.Now},
	})
	if _, err := m.Apply([]Def{{Relation: "Professor"}}); err != nil {
		t.Fatal(err)
	}
	eng.ViewAnswers = m
	src := "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"

	// Within the horizon the view answers.
	if _, ok, err := m.TryAnswer(parse(t, src)); !ok || err != nil {
		t.Fatalf("fresh view: ok=%v err=%v", ok, err)
	}

	// Past the horizon it must not.
	clock.Advance(2 * time.Hour)
	if _, ok, err := m.TryAnswer(parse(t, src)); ok || err != nil {
		t.Fatalf("stale view: ok=%v err=%v, want a decline", ok, err)
	}
	c := m.Counters()
	if c.StaleRejections != 1 || c.StaleAllowed != 0 {
		t.Errorf("counters %+v, want exactly 1 stale rejection", c)
	}
	ans, err := eng.QueryCQ(parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if ans.FromView || ans.Exec.Pages == 0 {
		t.Errorf("stale fallback: FromView=%v pages=%d, want a live execution", ans.FromView, ans.Exec.Pages)
	}

	// A refresh renews the horizon: the same view answers again.
	if _, _, _, err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := m.TryAnswer(parse(t, src)); !ok || err != nil {
		t.Fatalf("refreshed view: ok=%v err=%v", ok, err)
	}
}

// TestReapplyDoesNotRenewHorizon pins the guarantee behind -views-horizon:
// rebuilding extents from a never-revalidated store must NOT renew the
// freshness horizon — otherwise a periodic reselection would keep serving
// the original crawl as fresh forever. Only an actual store revalidation
// advances the clock.
func TestReapplyDoesNotRenewHorizon(t *testing.T) {
	clock := newManualClock()
	_, _, m := fixture(t, ManagerConfig{
		Rewriter: Config{Horizon: time.Hour, Clock: clock.Now},
	})
	defs := []Def{{Relation: "Professor"}}
	if _, err := m.Apply(defs); err != nil {
		t.Fatal(err)
	}
	src := "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"
	clock.Advance(2 * time.Hour)

	// Re-applying the same decision rebuilds the extent, but from the same
	// unrevalidated crawl: still past the horizon.
	if _, err := m.Apply(defs); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := m.TryAnswer(parse(t, src)); ok || err != nil {
		t.Fatalf("re-applied stale view answered: ok=%v err=%v, want a decline", ok, err)
	}

	// A store revalidation, by contrast, renews the horizon for the next Apply.
	if _, _, stale := m.RefreshStore(); len(stale) > 0 {
		t.Fatalf("refresh store: stale=%v", stale)
	}
	if _, err := m.Apply(defs); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := m.TryAnswer(parse(t, src)); !ok || err != nil {
		t.Fatalf("revalidated view: ok=%v err=%v, want an answer", ok, err)
	}
}

// flakyHead wraps a site server, failing HEAD for chosen URLs — the
// unreachable-page case of a refresh pass.
type flakyHead struct {
	site.Server
	mu   sync.Mutex
	fail map[string]bool
}

func (s *flakyHead) setFail(url string, bad bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail == nil {
		s.fail = make(map[string]bool)
	}
	s.fail[url] = bad
}

func (s *flakyHead) Head(url string) (site.Meta, error) {
	s.mu.Lock()
	bad := s.fail[url]
	s.mu.Unlock()
	if bad {
		return site.Meta{}, errors.New("flaky head")
	}
	return s.Server.Head(url) //lint:allow fetchgate test fault injector delegating to the wrapped server
}

// TestPartialRefreshKeepsHorizon: a refresh pass that left pages unverified
// (source unreachable) must not advance the verification clock — those pages
// are only as fresh as the previous full pass, so the rebuilt extents stay
// past the horizon until a pass verifies everything.
func TestPartialRefreshKeepsHorizon(t *testing.T) {
	clock := newManualClock()
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	fh := &flakyHead{Server: ms}
	m := NewManager(fh, view.UniversityView(u.Scheme), ManagerConfig{
		Rewriter: Config{Horizon: time.Hour, Clock: clock.Now},
	})
	if _, err := m.Apply([]Def{{Relation: "Professor"}}); err != nil {
		t.Fatal(err)
	}
	src := "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"

	// Break one materialized page's HEAD and age past the horizon: the
	// refresh reports the page stale and must not renew the horizon.
	url := sitegen.UnivProfListURL
	fh.setFail(url, true)
	clock.Advance(2 * time.Hour)
	if _, _, stale, err := m.Refresh(); err != nil || len(stale) == 0 {
		t.Fatalf("partial refresh: stale=%v err=%v, want stale pages and no error", stale, err)
	}
	if _, ok, err := m.TryAnswer(parse(t, src)); ok || err != nil {
		t.Fatalf("partially refreshed view answered: ok=%v err=%v, want a decline", ok, err)
	}

	// Once the page is reachable again, a full pass renews the horizon.
	fh.setFail(url, false)
	if _, _, stale, err := m.Refresh(); err != nil || len(stale) != 0 {
		t.Fatalf("full refresh: stale=%v err=%v", stale, err)
	}
	if _, ok, err := m.TryAnswer(parse(t, src)); !ok || err != nil {
		t.Fatalf("fully refreshed view: ok=%v err=%v, want an answer", ok, err)
	}
}

// TestAllowStaleServesPastHorizon: with AllowStale the stale view answers
// anyway and the serve is counted, mirroring §8's availability-over-freshness
// stance under an open breaker.
func TestAllowStaleServesPastHorizon(t *testing.T) {
	clock := newManualClock()
	_, eng, m := fixture(t, ManagerConfig{
		Rewriter: Config{Horizon: time.Hour, AllowStale: true, Clock: clock.Now},
	})
	if _, err := m.Apply([]Def{{Relation: "Professor"}}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Hour)
	src := "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"
	rel, ok, err := m.TryAnswer(parse(t, src))
	if !ok || err != nil {
		t.Fatalf("stale-allowed: ok=%v err=%v", ok, err)
	}
	live, err := eng.QueryCQ(parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if rel.String() != live.Result.String() {
		t.Error("stale answer differs from live (site unchanged, so it must not)")
	}
	c := m.Counters()
	if c.StaleAllowed != 1 || c.Hits != 1 || c.StaleRejections != 0 {
		t.Errorf("counters %+v, want 1 stale-allowed hit", c)
	}
}

// TestPartialCoverageDeclines: a join query where only one atom has a view
// must fall back entirely — vanswer never mixes stored and live tuples.
func TestPartialCoverageDeclines(t *testing.T) {
	_, _, m := fixture(t, ManagerConfig{})
	if _, err := m.Apply([]Def{{Relation: "Professor"}}); err != nil {
		t.Fatal(err)
	}
	q := parse(t, "SELECT ci.CName FROM CourseInstructor ci, Professor p WHERE ci.PName = p.PName")
	if _, ok, err := m.TryAnswer(q); ok || err != nil {
		t.Fatalf("ok=%v err=%v, want a decline (CourseInstructor has no view)", ok, err)
	}
	if c := m.Counters(); c.Misses != 1 {
		t.Errorf("Misses = %d, want 1", c.Misses)
	}
}

// TestBudgetSkipsOversizedExtents: the manager enforces the storage budget on
// measured extent bytes — a definition that does not fit is skipped, not
// truncated.
func TestBudgetSkipsOversizedExtents(t *testing.T) {
	_, _, m := fixture(t, ManagerConfig{Budget: 1})
	kept, err := m.Apply([]Def{{Relation: "Professor"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 0 {
		t.Fatalf("kept %v under a 1-byte budget, want nothing", kept)
	}
	if m.Bytes() != 0 {
		t.Errorf("Bytes() = %d, want 0", m.Bytes())
	}
	if _, ok, _ := m.TryAnswer(parse(t, "SELECT p.PName FROM Professor p")); ok {
		t.Error("answered from a view the budget should have excluded")
	}
}

// TestApplyRejectsUnknownDefinitions: unknown relations and attributes are
// configuration errors, reported rather than silently dropped.
func TestApplyRejectsUnknownDefinitions(t *testing.T) {
	_, _, m := fixture(t, ManagerConfig{})
	if _, err := m.Apply([]Def{{Relation: "Nonexistent"}}); err == nil {
		t.Error("unknown relation: want an error")
	}
	if _, err := m.Apply([]Def{{Relation: "Professor", Bindings: []Binding{{Attr: "Salary", Val: "1"}}}}); err == nil {
		t.Error("unknown attribute: want an error")
	}
}

// TestTightestBindingPreferred: with both the unbound extent and a bound one
// available, a query implying the binding is served from the smaller bound
// extent (same answer, less storage scanned).
func TestTightestBindingPreferred(t *testing.T) {
	_, eng, m := fixture(t, ManagerConfig{})
	full := Def{Relation: "Professor", Bindings: []Binding{{Attr: "Rank", Val: "Full"}}}
	if _, err := m.Apply([]Def{{Relation: "Professor"}, full}); err != nil {
		t.Fatal(err)
	}
	src := "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"
	rel, ok, err := m.TryAnswer(parse(t, src))
	if !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	live, err := eng.QueryCQ(parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if rel.String() != live.Result.String() {
		t.Error("bound-extent answer differs from live")
	}
	// The unbound scan is still answerable (from the unbound extent).
	if _, ok, err := m.TryAnswer(parse(t, "SELECT p.PName FROM Professor p")); !ok || err != nil {
		t.Fatalf("unbound: ok=%v err=%v", ok, err)
	}
}

// TestCountersAddFoldsEveryField fills every Counters field with a distinct
// non-zero value and folds it into a zero total: any field Add forgets (or
// folds from the wrong source) leaves the total different from the input.
func TestCountersAddFoldsEveryField(t *testing.T) {
	var full Counters
	v := reflect.ValueOf(&full).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Int {
			t.Fatalf("field %s: fill does not handle kind %s", v.Type().Field(i).Name, f.Kind())
		}
		f.SetInt(int64(i + 1))
	}
	var total Counters
	total.Add(full)
	if !reflect.DeepEqual(total, full) {
		t.Errorf("Add into zero lost a field:\n got %+v\nwant %+v", total, full)
	}
}
