package changefeed

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
)

// manualClock is a hand-advanced site.Clock for deterministic sweeps.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func newManualClock() *manualClock {
	return &manualClock{t: time.Date(1998, time.March, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func testSite(t *testing.T) (*sitegen.University, *site.MemSite) {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.UniversityParams{Courses: 6, Profs: 4, Depts: 2})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	return u, ms
}

// collector records every event a sink sees.
type collector struct {
	mu     sync.Mutex
	events []Event
}

func (c *collector) OnChange(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

func (c *collector) all() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

func TestHookModeEmitsEveryMutation(t *testing.T) {
	u, ms := testSite(t)
	clk := newManualClock()
	m := New(ms, Config{Clock: clk.Now})
	var got collector
	m.Subscribe(&got)
	m.AttachMemSite(ms)

	profURL := "http://univ.example.edu/prof/0.html"
	tup, _ := u.Instance.Page(sitegen.ProfPage, profURL)
	if err := ms.UpdatePage(sitegen.ProfPage, tup.With("Rank", nested.TextValue("Emeritus"))); err != nil {
		t.Fatal(err)
	}
	newURL := "http://univ.example.edu/prof/999.html"
	if err := ms.UpdatePage(sitegen.ProfPage, tup.With(adm.URLAttr, nested.LinkValue(newURL))); err != nil {
		t.Fatal(err)
	}
	ms.Touch(profURL)
	ms.RemovePage(newURL)

	events := got.all()
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4: %v", len(events), events)
	}
	wantKinds := []ChangeKind{site.ChangeUpdated, site.ChangeAdded, site.ChangeTouched, site.ChangeRemoved}
	wantURLs := []string{profURL, newURL, profURL, newURL}
	for i, ev := range events {
		if ev.Kind != wantKinds[i] || ev.URL != wantURLs[i] {
			t.Errorf("event %d = %v %s, want %v %s", i, ev.Kind, ev.URL, wantKinds[i], wantURLs[i])
		}
		if ev.Kind != site.ChangeRemoved {
			if ev.Scheme != sitegen.ProfPage {
				t.Errorf("event %d scheme = %q, want %q", i, ev.Scheme, sitegen.ProfPage)
			}
			if ev.LastModified.IsZero() {
				t.Errorf("event %d has no Last-Modified", i)
			}
		}
	}
	// The removal's scheme was learned from the earlier addition event.
	if rm := events[3]; rm.Scheme != sitegen.ProfPage {
		t.Errorf("removal scheme = %q, want %q (learned from the feed)", rm.Scheme, sitegen.ProfPage)
	}
	// Hook mode costs no network traffic at all.
	if ms.Counters().Heads() != 0 || ms.Counters().Gets() != 0 {
		t.Errorf("hook mode issued network traffic: %d heads, %d gets",
			ms.Counters().Heads(), ms.Counters().Gets())
	}
	c := m.Counters()
	if c.Events != 4 || c.Updates != 1 || c.Additions != 1 || c.Touches != 1 || c.Removals != 1 || c.Heads != 0 {
		t.Errorf("counters = %+v", c)
	}
	// Every change is pushed as it happens: the verified bound is "now".
	if at, ok := m.VerifiedBound(); !ok || !at.Equal(clk.Now()) {
		t.Errorf("VerifiedBound = %v %v, want now", at, ok)
	}
}

func TestPollSweepDetectsChangeAndAdapts(t *testing.T) {
	u, ms := testSite(t)
	clk := newManualClock()
	min := 10 * time.Second
	m := New(ms, Config{Clock: clk.Now, MinInterval: min})
	var got collector
	m.Subscribe(&got)
	m.WatchMemSite(ms)
	if w := m.Counters().Watched; w != ms.Len() {
		t.Fatalf("Watched = %d, want %d", w, ms.Len())
	}
	if _, ok := m.VerifiedBound(); ok {
		t.Fatal("VerifiedBound should not exist before the first full sweep")
	}

	// First sweep: everything due, nothing changed. Clean; bound = sweep time.
	t0 := clk.Now()
	rep := m.Sweep(context.Background())
	if !rep.Clean || rep.Checked != ms.Len() || rep.Changed != 0 {
		t.Fatalf("sweep 1 = %+v", rep)
	}
	if !rep.OldestVerified.Equal(t0) {
		t.Errorf("OldestVerified = %v, want %v", rep.OldestVerified, t0)
	}
	if at, ok := m.VerifiedBound(); !ok || !at.Equal(t0) {
		t.Errorf("VerifiedBound = %v %v, want %v", at, ok, t0)
	}

	// Mutate one page; everything comes due again after the doubled interval.
	profURL := "http://univ.example.edu/prof/0.html"
	tup, _ := u.Instance.Page(sitegen.ProfPage, profURL)
	if err := ms.UpdatePage(sitegen.ProfPage, tup.With("Rank", nested.TextValue("Emeritus"))); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * min)
	rep = m.Sweep(context.Background())
	if !rep.Clean || rep.Changed != 1 {
		t.Fatalf("sweep 2 = %+v", rep)
	}
	events := got.all()
	if len(events) != 1 || events[0].URL != profURL || events[0].Kind != site.ChangeUpdated ||
		events[0].Scheme != sitegen.ProfPage || events[0].LastModified.IsZero() {
		t.Fatalf("events = %v", events)
	}

	// Cadence adapted: the changed URL is due again after min; the unchanged
	// ones doubled to 4*min and must NOT be re-checked yet.
	clk.Advance(min)
	rep = m.Sweep(context.Background())
	if rep.Checked != 1 || rep.Changed != 0 {
		t.Fatalf("sweep 3 = %+v (only the hot URL should be due)", rep)
	}
	if heads := m.Counters().Heads; heads != ms.Len()*2+1 {
		t.Errorf("Heads = %d, want %d", heads, ms.Len()*2+1)
	}
}

func TestPollSweepBudgetDefers(t *testing.T) {
	_, ms := testSite(t)
	clk := newManualClock()
	m := New(ms, Config{Clock: clk.Now, Budget: 3, MinInterval: 10 * time.Second})
	m.WatchMemSite(ms)
	rep := m.Sweep(context.Background())
	if rep.Checked != 3 || rep.Deferred != ms.Len()-3 || rep.Clean {
		t.Fatalf("budgeted sweep = %+v", rep)
	}
	if _, ok := m.VerifiedBound(); ok {
		t.Error("a deferred sweep must not establish a verified bound")
	}
	// Deferred URLs stay due: the next sweeps drain them.
	for i := 0; i < 20; i++ {
		if m.Sweep(context.Background()).Deferred == 0 {
			break
		}
	}
	if _, ok := m.VerifiedBound(); !ok {
		t.Error("bound should exist once every URL has been checked")
	}
}

func TestPollSweepRemovesGonePages(t *testing.T) {
	_, ms := testSite(t)
	clk := newManualClock()
	m := New(ms, Config{Clock: clk.Now, MinInterval: 10 * time.Second})
	var got collector
	m.Subscribe(&got)
	m.WatchMemSite(ms)
	url := "http://univ.example.edu/course/0.html"
	ms.RemovePage(url)
	rep := m.Sweep(context.Background())
	if rep.Removed != 1 || !rep.Clean {
		t.Fatalf("sweep = %+v", rep)
	}
	var rm Event
	for _, e := range got.all() {
		if e.Kind == site.ChangeRemoved {
			rm = e
		}
	}
	if rm.URL != url || rm.Scheme != sitegen.CoursePage {
		t.Fatalf("removal event = %+v", rm)
	}
	if w := m.Counters().Watched; w != ms.Len() {
		t.Errorf("Watched = %d after removal, want %d", w, ms.Len())
	}
}

// breakerServer fast-fails every access, like a guard with an open breaker.
type breakerServer struct{ inner site.Server }

func (b breakerServer) Get(url string) (site.Page, error) {
	return site.Page{}, site.ErrBreakerOpen
}

func (b breakerServer) Head(url string) (site.Meta, error) {
	return site.Meta{}, site.ErrBreakerOpen
}

func TestPollSweepBreakerAware(t *testing.T) {
	_, ms := testSite(t)
	clk := newManualClock()
	m := New(breakerServer{ms}, Config{Clock: clk.Now, MinInterval: 10 * time.Second})
	m.WatchMemSite(ms)
	rep := m.Sweep(context.Background())
	if rep.BreakerSkips != ms.Len() || rep.Clean || rep.Checked != 0 {
		t.Fatalf("sweep under open breaker = %+v", rep)
	}
	// Fast-fails never reached the network: no light connections were spent.
	if c := m.Counters(); c.Heads != 0 || c.BreakerSkips != ms.Len() {
		t.Errorf("counters = %+v", c)
	}
	if _, ok := m.VerifiedBound(); ok {
		t.Error("no verified bound while the breaker blocks every check")
	}
}

// errServer fails every HEAD with a transient error.
type errServer struct{ inner site.Server }

func (e errServer) Get(url string) (site.Page, error) { return e.inner.Get(url) } //lint:allow fetchgate test double forwarding to the fake site

func (e errServer) Head(url string) (site.Meta, error) {
	return site.Meta{}, errors.New("boom")
}

func TestPollSweepErrorNotClean(t *testing.T) {
	_, ms := testSite(t)
	clk := newManualClock()
	m := New(errServer{ms}, Config{Clock: clk.Now, MinInterval: 10 * time.Second})
	m.Watch("http://univ.example.edu/prof/0.html", sitegen.ProfPage, time.Time{})
	rep := m.Sweep(context.Background())
	if rep.Errors != 1 || rep.Clean {
		t.Fatalf("sweep = %+v", rep)
	}
}

func TestSweepSinkAndRun(t *testing.T) {
	_, ms := testSite(t)
	clk := newManualClock()
	m := New(ms, Config{Clock: clk.Now, MinInterval: 10 * time.Second})
	m.WatchMemSite(ms)
	var reports []SweepReport
	m.SubscribeSweep(SweepFunc(func(r SweepReport) { reports = append(reports, r) }))

	ctx, cancel := context.WithCancel(context.Background())
	slp := &site.InstantSleeper{}
	done := make(chan error, 1)
	go func() { done <- m.Run(ctx, time.Minute, slp) }()
	for {
		m.mu.Lock()
		n := m.counters.Sweeps
		m.mu.Unlock()
		if n >= 2 {
			break
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v", err)
	}
	if len(reports) < 2 {
		t.Fatalf("sweep sink saw %d reports, want >= 2", len(reports))
	}
	if !reports[0].Clean {
		t.Errorf("first report = %+v", reports[0])
	}
}
