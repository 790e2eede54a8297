package faults

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ulixes/internal/site"
)

// onePage is a minimal server with a single page.
type onePage struct {
	url  string
	html string
}

func (s onePage) Get(url string) (site.Page, error) {
	if url != s.url {
		return site.Page{}, site.ErrNotFound
	}
	return site.Page{HTML: s.html}, nil
}

func (s onePage) Head(url string) (site.Meta, error) {
	if url != s.url {
		return site.Meta{}, site.ErrNotFound
	}
	return site.Meta{}, nil
}

const testURL = "http://example.test/p.html"

func testServer() onePage {
	return onePage{url: testURL, html: "<html><body><b>Name:</b> Jones</body></html>"}
}

func TestFirstSchedule(t *testing.T) {
	s := New(testServer(), 1, Rule{Kind: Transient, First: 2})
	for i := 0; i < 2; i++ {
		if _, err := s.Get(testURL); !errors.Is(err, ErrInjected) {
			t.Fatalf("attempt %d: err = %v, want ErrInjected", i, err)
		}
	}
	if _, err := s.Get(testURL); err != nil {
		t.Fatalf("attempt 2 should succeed after the schedule: %v", err)
	}
	if got := s.Attempts(testURL); got != 3 {
		t.Errorf("Attempts = %d, want 3", got)
	}
	if got := s.Injected(Transient); got != 2 {
		t.Errorf("Injected(Transient) = %d, want 2", got)
	}
}

// TestCoinDeterminism: with a Rate rule, the fault sequence of a URL is a
// pure function of the seed — two servers with the same seed inject faults
// on exactly the same attempts, and a Reset replays the schedule.
func TestCoinDeterminism(t *testing.T) {
	sequence := func(s *Server) []bool {
		var seq []bool
		for i := 0; i < 64; i++ {
			_, err := s.Get(testURL)
			seq = append(seq, err != nil)
		}
		return seq
	}
	a := New(testServer(), 99, Rule{Kind: Transient, Rate: 0.5})
	b := New(testServer(), 99, Rule{Kind: Transient, Rate: 0.5})
	seqA, seqB := sequence(a), sequence(b)
	fired := 0
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("same seed diverged at attempt %d", i)
		}
		if seqA[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(seqA) {
		t.Fatalf("rate 0.5 fired %d/%d times; coin looks degenerate", fired, len(seqA))
	}
	a.Reset()
	if a.InjectedTotal() != 0 || a.Attempts(testURL) != 0 {
		t.Fatal("Reset did not clear counters")
	}
	for i, want := range sequence(a) {
		if want != seqA[i] {
			t.Fatalf("replay after Reset diverged at attempt %d", i)
		}
	}

	c := New(testServer(), 100, Rule{Kind: Transient, Rate: 0.5})
	same := true
	for i, got := range sequence(c) {
		if got != seqA[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical 64-attempt sequences")
	}
}

// TestDeterminismUnderConcurrency: N concurrent GETs of one URL see exactly
// the scheduled number of faults no matter how goroutines interleave.
func TestDeterminismUnderConcurrency(t *testing.T) {
	s := New(testServer(), 5, Rule{Kind: Transient, First: 10})
	var wg sync.WaitGroup
	fails := make(chan struct{}, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Get(testURL); err != nil {
				fails <- struct{}{}
			}
		}()
	}
	wg.Wait()
	close(fails)
	n := 0
	for range fails {
		n++
	}
	if n != 10 {
		t.Errorf("%d of 64 concurrent GETs failed, want exactly the scheduled 10", n)
	}
}

func TestNotFoundAndPatterns(t *testing.T) {
	s := New(testServer(), 3, Rule{Pattern: "/p.html", Kind: NotFound, Rate: 1})
	for i := 0; i < 2; i++ {
		if _, err := s.Get(testURL); !errors.Is(err, site.ErrNotFound) {
			t.Fatalf("GET %d: err = %v, want ErrNotFound", i, err)
		}
	}
	if got := s.FaultedURLs(); len(got) != 1 || got[0] != testURL {
		t.Errorf("FaultedURLs = %v, want [%s]", got, testURL)
	}

	// A non-matching pattern leaves the URL alone.
	s2 := New(testServer(), 3, Rule{Pattern: "/other.html", Kind: NotFound, Rate: 1})
	if _, err := s2.Get(testURL); err != nil {
		t.Fatalf("non-matching rule fired: %v", err)
	}
	if s2.InjectedTotal() != 0 {
		t.Errorf("InjectedTotal = %d, want 0", s2.InjectedTotal())
	}
}

func TestStallBlocksUntilContextCancel(t *testing.T) {
	s := New(testServer(), 8, Rule{Kind: Stall, First: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.GetContext(ctx, testURL)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("stalled GET returned before cancel: %v", err)
	default:
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("stalled GET err = %v, want context.Canceled", err)
	}
	// The stall consumed the schedule; the next attempt succeeds.
	if _, err := s.Get(testURL); err != nil {
		t.Fatalf("attempt after stall: %v", err)
	}
}

func TestTruncateAndMalform(t *testing.T) {
	srv := testServer()
	s := New(srv, 11, Rule{Kind: Truncate, First: 1}, Rule{Kind: Malform, First: 2})
	p, err := s.Get(testURL)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.HTML) >= len(srv.html) {
		t.Errorf("truncated page is %d bytes, want < %d", len(p.HTML), len(srv.html))
	}
	p, err = s.Get(testURL)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.HTML) != len(srv.html) || p.HTML == srv.html {
		t.Errorf("malformed page should keep its length but lose structure: %q", p.HTML)
	}
	if strings.Count(p.HTML, "<") >= strings.Count(srv.html, "<") {
		t.Error("malformed page did not lose any tag openers")
	}
	p, err = s.Get(testURL)
	if err != nil || p.HTML != srv.html {
		t.Errorf("third attempt should serve the pristine page: %v, %q", err, p.HTML)
	}
}

// TestHeadIsolation: HEAD has its own attempt counter, so light connections
// never consume the GET schedule, and only NotFound/Transient apply.
func TestHeadIsolation(t *testing.T) {
	s := New(testServer(), 13, Rule{Kind: Transient, First: 1})
	if _, err := s.Head(testURL); !errors.Is(err, ErrInjected) {
		t.Fatalf("first HEAD err = %v, want ErrInjected", err)
	}
	if _, err := s.Get(testURL); !errors.Is(err, ErrInjected) {
		t.Fatalf("first GET should still see its own scheduled fault, got %v", err)
	}
	if _, err := s.Head(testURL); err != nil {
		t.Fatalf("second HEAD: %v", err)
	}
	if _, err := s.Get(testURL); err != nil {
		t.Fatalf("second GET: %v", err)
	}
	// Truncate rules never apply to HEAD.
	s2 := New(testServer(), 13, Rule{Kind: Truncate, Rate: 1})
	if _, err := s2.Head(testURL); err != nil {
		t.Fatalf("HEAD under a Truncate rule: %v", err)
	}
}

// TestLatencyUsesInjectedSleep: latency is realized through the injected
// sleeper only — with none installed the fault is recorded but the
// call returns immediately (the wall clock is never read).
func TestLatencyUsesInjectedSleep(t *testing.T) {
	s := New(testServer(), 17, Rule{Kind: Latency, First: 1, Latency: 250 * time.Millisecond})
	if _, err := s.Get(testURL); err != nil {
		t.Fatal(err)
	}
	if got := s.Injected(Latency); got != 1 {
		t.Errorf("Injected(Latency) = %d, want 1", got)
	}

	slp := &site.InstantSleeper{}
	s2 := New(testServer(), 17, Rule{Kind: Latency, First: 1, Latency: 250 * time.Millisecond})
	s2.SetSleeper(slp)
	if _, err := s2.Get(testURL); err != nil {
		t.Fatal(err)
	}
	if slept := slp.Slept(); len(slept) != 1 || slept[0] != 250*time.Millisecond {
		t.Errorf("injected sleep calls = %v, want [250ms]", slept)
	}
}

// TestRuleOrder: the first matching rule that fires wins.
func TestRuleOrder(t *testing.T) {
	s := New(testServer(), 19,
		Rule{Kind: NotFound, First: 1},
		Rule{Kind: Transient, First: 2},
	)
	if _, err := s.Get(testURL); !errors.Is(err, site.ErrNotFound) {
		t.Fatalf("first GET err = %v, want ErrNotFound (rule 0 wins)", err)
	}
	if _, err := s.Get(testURL); !errors.Is(err, ErrInjected) {
		t.Fatalf("second GET err = %v, want ErrInjected (rule 1 fires)", err)
	}
	if _, err := s.Get(testURL); err != nil {
		t.Fatalf("third GET: %v", err)
	}
}

// TestStallHonorsContextWithoutLeakingGoroutines: a burst of stalled GETs,
// HEADs and latency-delayed requests whose contexts are canceled must all
// return promptly and leave no goroutine parked in the fault layer — the
// situation a hedged fetch creates every time it cancels the loser.
func TestStallHonorsContextWithoutLeakingGoroutines(t *testing.T) {
	s := New(testServer(), 23,
		Rule{Pattern: "stall", Kind: Stall, Rate: 1},
		Rule{Pattern: "delay", Kind: Latency, Rate: 1, Latency: time.Hour},
	)
	s.SetSleeper(site.StdSleeper())

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	const n = 25
	for i := 0; i < n; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			_, err := s.GetContext(ctx, "http://example.test/stall.html")
			if !errors.Is(err, context.Canceled) {
				t.Errorf("stalled GET returned %v, want context.Canceled", err)
			}
		}()
		go func() {
			defer wg.Done()
			_, err := s.HeadContext(ctx, "http://example.test/stall.html")
			if !errors.Is(err, context.Canceled) {
				t.Errorf("stalled HEAD returned %v, want context.Canceled", err)
			}
		}()
		go func() {
			defer wg.Done()
			_, err := s.GetContext(ctx, "http://example.test/delay.html")
			if !errors.Is(err, context.Canceled) {
				t.Errorf("delayed GET returned %v, want context.Canceled", err)
			}
		}()
	}
	// Give the burst a moment to park, then cancel everything.
	time.Sleep(20 * time.Millisecond)
	cancel()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("canceled requests did not return within 5s")
	}
	// The goroutine count must settle back to (about) where it started.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancel", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSetRulesMidRun: a healthy host falls sick when SetRules installs a
// failure rule, and recovers when the rules are cleared; attempt counters
// survive the swap.
func TestSetRulesMidRun(t *testing.T) {
	s := New(testServer(), 29)
	if _, err := s.Get(testURL); err != nil {
		t.Fatalf("healthy GET: %v", err)
	}
	s.SetRules(Rule{Kind: Transient, Rate: 1})
	if _, err := s.Get(testURL); !errors.Is(err, ErrInjected) {
		t.Fatalf("sick GET err = %v, want ErrInjected", err)
	}
	s.SetRules()
	if _, err := s.Get(testURL); err != nil {
		t.Fatalf("recovered GET: %v", err)
	}
	if got := s.Attempts(testURL); got != 3 {
		t.Errorf("Attempts = %d, want 3 across rule swaps", got)
	}
}

// TestHeadContextStall: the context-aware light connection supports Stall
// (the plain Head cannot — it has no way out) and shares the HEAD attempt
// counter with Head.
func TestHeadContextStall(t *testing.T) {
	s := New(testServer(), 31, Rule{Kind: Stall, First: 1})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.HeadContext(ctx, testURL)
		errc <- err
	}()
	select {
	case err := <-errc:
		t.Fatalf("stalled HEAD returned early: %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("stalled HEAD err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled HEAD never returned after cancel")
	}
	// The schedule is consumed: the next HEAD goes through.
	if _, err := s.Head(testURL); err != nil {
		t.Fatalf("post-stall HEAD: %v", err)
	}
}
