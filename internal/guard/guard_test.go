package guard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ulixes/internal/site"
)

// testClock is a manually advanced clock, safe for concurrent reads.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock {
	return &testClock{t: time.Date(1998, time.March, 23, 0, 0, 0, 0, time.UTC)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// fakeServer is a scriptable context-aware inner server.
type fakeServer struct {
	mu    sync.Mutex
	gets  int
	heads int
	fn    func(ctx context.Context, call int, url string) (site.Page, error)
}

func (f *fakeServer) GetContext(ctx context.Context, url string) (site.Page, error) {
	f.mu.Lock()
	call := f.gets
	f.gets++
	f.mu.Unlock()
	return f.fn(ctx, call, url)
}

func (f *fakeServer) Get(url string) (site.Page, error) {
	return f.GetContext(context.Background(), url)
}

func (f *fakeServer) Head(url string) (site.Meta, error) {
	f.mu.Lock()
	f.heads++
	f.mu.Unlock()
	_, err := f.GetContext(context.Background(), url)
	return site.Meta{}, err
}

func (f *fakeServer) getCalls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gets
}

// gateSleeper releases Sleep when its channel is closed; with a pre-closed
// channel the hedge timer fires deterministically before any network answer.
type gateSleeper struct{ ch chan struct{} }

func (s gateSleeper) Sleep(ctx context.Context, d time.Duration) error {
	select {
	case <-s.ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// blockedSleeper never fires (until the context ends): hedging configured
// but effectively disabled, for tests that want the primary to win.
func blockedSleeper() gateSleeper { return gateSleeper{ch: make(chan struct{})} }

func firedSleeper() gateSleeper {
	ch := make(chan struct{})
	close(ch)
	return gateSleeper{ch: ch}
}

var errBoom = errors.New("boom")

func TestBreakerOpensAfterMinSamplesAndFastFails(t *testing.T) {
	clock := newTestClock()
	srv := &fakeServer{fn: func(ctx context.Context, call int, url string) (site.Page, error) {
		return site.Page{}, errBoom
	}}
	g := New(srv, Config{Clock: clock.Now})

	for i := 0; i < MinSamples; i++ {
		_, out, err := g.GetOutcome(context.Background(), "http://sick.example.org/p.html")
		if !errors.Is(err, errBoom) || out.FastFailed {
			t.Fatalf("attempt %d: err=%v fastFailed=%v, want boom over the network", i, err, out.FastFailed)
		}
	}
	if st := g.StateOf("http://sick.example.org"); st != Open {
		t.Fatalf("after %d failures state = %v, want open", MinSamples, st)
	}
	calls := srv.getCalls()
	_, out, err := g.GetOutcome(context.Background(), "http://sick.example.org/p.html")
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker returned %v, want ErrBreakerOpen", err)
	}
	if !out.FastFailed {
		t.Fatalf("open breaker outcome %+v, want FastFailed", out)
	}
	if srv.getCalls() != calls {
		t.Fatalf("fast-fail touched the network: %d calls, had %d", srv.getCalls(), calls)
	}
	if !g.AnyOpen() {
		t.Fatal("AnyOpen = false with an open breaker")
	}
}

func TestBreakerHalfOpenProbeRecovery(t *testing.T) {
	clock := newTestClock()
	healthy := false
	var mu sync.Mutex
	srv := &fakeServer{fn: func(ctx context.Context, call int, url string) (site.Page, error) {
		mu.Lock()
		ok := healthy
		mu.Unlock()
		if ok {
			return site.Page{HTML: "<html/>"}, nil
		}
		return site.Page{}, errBoom
	}}
	g := New(srv, Config{Clock: clock.Now, OpenFor: 10 * time.Second})
	url := "http://a.example.org/p.html"

	for i := 0; i < MinSamples; i++ {
		g.GetOutcome(context.Background(), url)
	}
	if st := g.StateOf("http://a.example.org"); st != Open {
		t.Fatalf("state = %v, want open", st)
	}

	// Within the open window every access still fast-fails.
	clock.Advance(5 * time.Second)
	if _, _, err := g.GetOutcome(context.Background(), url); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("inside open window: %v, want ErrBreakerOpen", err)
	}

	// Past the window the breaker goes half-open; a failing probe reopens it.
	clock.Advance(6 * time.Second)
	if _, out, err := g.GetOutcome(context.Background(), url); !errors.Is(err, errBoom) || out.FastFailed {
		t.Fatalf("probe: err=%v out=%+v, want a real network failure", err, out)
	}
	if st := g.StateOf("http://a.example.org"); st != Open {
		t.Fatalf("after failed probe state = %v, want open again", st)
	}

	// Recovery: CloseAfter successful probes close it.
	mu.Lock()
	healthy = true
	mu.Unlock()
	clock.Advance(11 * time.Second)
	for i := 0; i < CloseAfter; i++ {
		if _, _, err := g.GetOutcome(context.Background(), url); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
	if st := g.StateOf("http://a.example.org"); st != Closed {
		t.Fatalf("after %d good probes state = %v, want closed", CloseAfter, st)
	}
	// And a closed breaker admits everything again.
	if _, out, err := g.GetOutcome(context.Background(), url); err != nil || out.FastFailed {
		t.Fatalf("closed breaker: err=%v out=%+v", err, out)
	}
}

func TestHalfOpenAdmitsOneProbeAtATime(t *testing.T) {
	clock := newTestClock()
	release := make(chan struct{})
	srv := &fakeServer{fn: func(ctx context.Context, call int, url string) (site.Page, error) {
		if call < MinSamples {
			return site.Page{}, errBoom
		}
		<-release
		return site.Page{HTML: "<html/>"}, nil
	}}
	g := New(srv, Config{Clock: clock.Now, OpenFor: time.Second})
	url := "http://a.example.org/p.html"
	for i := 0; i < MinSamples; i++ {
		g.GetOutcome(context.Background(), url)
	}
	clock.Advance(2 * time.Second)

	probeDone := make(chan error, 1)
	go func() {
		_, _, err := g.GetOutcome(context.Background(), url)
		probeDone <- err
	}()
	// Wait until the probe is in flight, then a second access must fast-fail.
	for i := 0; ; i++ {
		g.mu.Lock()
		probing := g.hosts["http://a.example.org"].probing
		g.mu.Unlock()
		if probing {
			break
		}
		if i > 1000 {
			t.Fatal("probe never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, out, err := g.GetOutcome(context.Background(), url); !errors.Is(err, ErrBreakerOpen) || !out.FastFailed {
		t.Fatalf("second access during probe: err=%v out=%+v, want fast-fail", err, out)
	}
	close(release)
	if err := <-probeDone; err != nil {
		t.Fatalf("probe: %v", err)
	}
}

func TestNotFoundCountsAsHealthy(t *testing.T) {
	clock := newTestClock()
	srv := &fakeServer{fn: func(ctx context.Context, call int, url string) (site.Page, error) {
		return site.Page{}, fmt.Errorf("%w: %s", site.ErrNotFound, url)
	}}
	g := New(srv, Config{Clock: clock.Now})
	for i := 0; i < 10; i++ {
		if _, _, err := g.GetOutcome(context.Background(), "http://a.example.org/gone.html"); !errors.Is(err, site.ErrNotFound) {
			t.Fatalf("want ErrNotFound, got %v", err)
		}
	}
	if st := g.StateOf("http://a.example.org"); st != Closed {
		t.Fatalf("404s tripped the breaker: state = %v", st)
	}
}

func TestCallerCancellationNotRecorded(t *testing.T) {
	clock := newTestClock()
	srv := &fakeServer{fn: func(ctx context.Context, call int, url string) (site.Page, error) {
		<-ctx.Done()
		return site.Page{}, ctx.Err()
	}}
	g := New(srv, Config{Clock: clock.Now})
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		g.GetOutcome(ctx, "http://a.example.org/p.html")
	}
	g.mu.Lock()
	samples := g.hosts["http://a.example.org"].samples
	g.mu.Unlock()
	if samples != 0 {
		t.Fatalf("caller cancellations recorded %d health samples, want 0", samples)
	}
	if st := g.StateOf("http://a.example.org"); st != Closed {
		t.Fatalf("caller cancellations tripped the breaker: %v", st)
	}
}

func TestBulkheadBoundsPerHostInflight(t *testing.T) {
	clock := newTestClock()
	var mu sync.Mutex
	inflight, peak := 0, 0
	release := make(chan struct{})
	srv := &fakeServer{fn: func(ctx context.Context, call int, url string) (site.Page, error) {
		mu.Lock()
		inflight++
		if inflight > peak {
			peak = inflight
		}
		mu.Unlock()
		<-release
		mu.Lock()
		inflight--
		mu.Unlock()
		return site.Page{HTML: "<html/>"}, nil
	}}
	g := New(srv, Config{Clock: clock.Now, MaxPerHost: 2})

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.GetOutcome(context.Background(), fmt.Sprintf("http://a.example.org/p%d.html", i))
		}(i)
	}
	// Let the first two enter and the rest queue on the bulkhead.
	for i := 0; ; i++ {
		mu.Lock()
		n := inflight
		mu.Unlock()
		if n == 2 {
			break
		}
		if i > 1000 {
			t.Fatalf("bulkhead admitted %d, want 2 in flight", n)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if peak > 2 {
		t.Fatalf("peak in-flight %d exceeds bulkhead of 2", peak)
	}
}

func TestBulkheadWaitHonorsContext(t *testing.T) {
	clock := newTestClock()
	release := make(chan struct{})
	srv := &fakeServer{fn: func(ctx context.Context, call int, url string) (site.Page, error) {
		<-release
		return site.Page{HTML: "<html/>"}, nil
	}}
	g := New(srv, Config{Clock: clock.Now, MaxPerHost: 1})
	done := make(chan struct{})
	go func() {
		g.GetOutcome(context.Background(), "http://a.example.org/p0.html")
		close(done)
	}()
	for i := 0; ; i++ {
		if srv.getCalls() == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("first request never entered")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := g.GetOutcome(ctx, "http://a.example.org/p1.html")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("queued access returned %v, want context.Canceled", err)
	}
	close(release)
	<-done
	g.mu.Lock()
	samples := g.hosts["http://a.example.org"].samples
	g.mu.Unlock()
	if samples != 1 {
		t.Fatalf("samples = %d, want 1 (the canceled wait must not count)", samples)
	}
}

func TestHedgeFiresAndWins(t *testing.T) {
	clock := newTestClock()
	primaryIn := make(chan struct{})
	srv := &fakeServer{fn: func(ctx context.Context, call int, url string) (site.Page, error) {
		if call == 0 {
			// The primary stalls until the hedge's win cancels it. The
			// hedge timer is gated on the primary having arrived, so the
			// call order is deterministic.
			close(primaryIn)
			<-ctx.Done()
			return site.Page{}, ctx.Err()
		}
		return site.Page{HTML: "<hedged/>"}, nil
	}}
	g := New(srv, Config{Clock: clock.Now, Sleeper: gateSleeper{ch: primaryIn}, HedgeAfter: time.Millisecond})
	p, out, err := g.GetOutcome(context.Background(), "http://a.example.org/slow.html")
	if err != nil {
		t.Fatalf("hedged access failed: %v", err)
	}
	if p.HTML != "<hedged/>" {
		t.Fatalf("got %q, want the hedge's page", p.HTML)
	}
	if out.Hedges != 1 || !out.HedgeWon {
		t.Fatalf("outcome %+v, want Hedges=1 HedgeWon", out)
	}
	if srv.getCalls() != 2 {
		t.Fatalf("server saw %d GETs, want primary + hedge", srv.getCalls())
	}
	snaps := g.Snapshot()
	if len(snaps) != 1 || snaps[0].Hedges != 1 || snaps[0].HedgeWins != 1 {
		t.Fatalf("snapshot %+v, want 1 hedge, 1 win", snaps)
	}
}

func TestHedgeNotIssuedWhenPrimaryFast(t *testing.T) {
	clock := newTestClock()
	srv := &fakeServer{fn: func(ctx context.Context, call int, url string) (site.Page, error) {
		return site.Page{HTML: "<fast/>"}, nil
	}}
	g := New(srv, Config{Clock: clock.Now, Sleeper: blockedSleeper(), HedgeAfter: time.Hour})
	p, out, err := g.GetOutcome(context.Background(), "http://a.example.org/fast.html")
	if err != nil || p.HTML != "<fast/>" {
		t.Fatalf("err=%v page=%q", err, p.HTML)
	}
	if out.Hedges != 0 || out.HedgeWon {
		t.Fatalf("outcome %+v, want no hedge", out)
	}
	if srv.getCalls() != 1 {
		t.Fatalf("server saw %d GETs, want 1", srv.getCalls())
	}
}

func TestHedgePrimaryFailsFastBeforeHedge(t *testing.T) {
	clock := newTestClock()
	srv := &fakeServer{fn: func(ctx context.Context, call int, url string) (site.Page, error) {
		return site.Page{}, errBoom
	}}
	g := New(srv, Config{Clock: clock.Now, Sleeper: blockedSleeper(), HedgeAfter: time.Hour})
	_, out, err := g.GetOutcome(context.Background(), "http://a.example.org/p.html")
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want the primary's fast failure", err)
	}
	if out.Hedges != 0 {
		t.Fatalf("outcome %+v, want no hedge for a fast failure", out)
	}
}

func TestHostIsolation(t *testing.T) {
	clock := newTestClock()
	srv := &fakeServer{fn: func(ctx context.Context, call int, url string) (site.Page, error) {
		if HostOf(url) == "http://sick.example.org" {
			return site.Page{}, errBoom
		}
		return site.Page{HTML: "<html/>"}, nil
	}}
	g := New(srv, Config{Clock: clock.Now})
	for i := 0; i < 4; i++ {
		g.GetOutcome(context.Background(), fmt.Sprintf("http://sick.example.org/p%d.html", i))
		if _, out, err := g.GetOutcome(context.Background(), fmt.Sprintf("http://ok.example.org/p%d.html", i)); err != nil || out.FastFailed {
			t.Fatalf("healthy host degraded: err=%v out=%+v", err, out)
		}
	}
	if st := g.StateOf("http://sick.example.org"); st != Open {
		t.Fatalf("sick host state = %v, want open", st)
	}
	if st := g.StateOf("http://ok.example.org"); st != Closed {
		t.Fatalf("healthy host state = %v, want closed", st)
	}
}

func TestHostOfDefault(t *testing.T) {
	cases := map[string]string{
		"http://a.example.org/x/y.html": "http://a.example.org",
		"http://a.example.org":          "http://a.example.org",
		"relative/path.html":            "relative",
		"just-a-name":                   "just-a-name",
	}
	for url, want := range cases {
		if got := HostOf(url); got != want {
			t.Errorf("HostOf(%q) = %q, want %q", url, got, want)
		}
	}
}

func TestHeadOutcomeThroughBreaker(t *testing.T) {
	clock := newTestClock()
	srv := &fakeServer{fn: func(ctx context.Context, call int, url string) (site.Page, error) {
		return site.Page{}, errBoom
	}}
	g := New(srv, Config{Clock: clock.Now})
	url := "http://a.example.org/p.html"
	for i := 0; i < MinSamples; i++ {
		if _, _, err := g.HeadOutcome(context.Background(), url); !errors.Is(err, errBoom) {
			t.Fatalf("HEAD %d: %v", i, err)
		}
	}
	_, out, err := g.HeadOutcome(context.Background(), url)
	if !errors.Is(err, ErrBreakerOpen) || !out.FastFailed {
		t.Fatalf("HEAD on open breaker: err=%v out=%+v", err, out)
	}
}

func TestSnapshotSorted(t *testing.T) {
	clock := newTestClock()
	srv := &fakeServer{fn: func(ctx context.Context, call int, url string) (site.Page, error) {
		return site.Page{HTML: "<html/>"}, nil
	}}
	g := New(srv, Config{Clock: clock.Now})
	for _, u := range []string{"http://c.example.org/1", "http://a.example.org/1", "http://b.example.org/1"} {
		g.GetOutcome(context.Background(), u)
	}
	snaps := g.Snapshot()
	if len(snaps) != 3 {
		t.Fatalf("snapshot has %d hosts, want 3", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i-1].Host > snaps[i].Host {
			t.Fatalf("snapshot not sorted: %q before %q", snaps[i-1].Host, snaps[i].Host)
		}
	}
	for _, s := range snaps {
		if s.State != "closed" || s.Samples != 1 || s.ErrorRate != 0 {
			t.Fatalf("healthy host snapshot %+v", s)
		}
	}
}
