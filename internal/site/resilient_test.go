package site

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ulixes/internal/adm"
	"ulixes/internal/sitegen"
)

var errBadURL = errors.New("injected fetch failure")

// profURLs collects the professor-page URLs of the generated university —
// a convenient batch of many distinct pages of one scheme.
func profURLs(t *testing.T, u *sitegen.University) []string {
	t.Helper()
	var urls []string
	for _, tup := range u.Instance.Relation(sitegen.ProfPage).Tuples() {
		urls = append(urls, tup.MustGet(adm.URLAttr).String())
	}
	if len(urls) < 10 {
		t.Fatalf("want at least 10 professor pages, have %d", len(urls))
	}
	return urls
}

// failNServer fails the first N GETs of each URL with a transient error,
// counting every server-side attempt.
type failNServer struct {
	*MemSite
	n    int
	mu   sync.Mutex
	gets map[string]int
}

func newFailNServer(ms *MemSite, n int) *failNServer {
	return &failNServer{MemSite: ms, n: n, gets: make(map[string]int)}
}

func (s *failNServer) Get(url string) (Page, error) {
	s.mu.Lock()
	k := s.gets[url]
	s.gets[url] = k + 1
	s.mu.Unlock()
	if k < s.n {
		return Page{}, errBadURL
	}
	return s.MemSite.Get(url)
}

func (s *failNServer) count(url string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets[url]
}

func TestBackoffScheduleDeterministic(t *testing.T) {
	pol := RetryPolicy{Seed: 1}
	const url = "http://x/p.html"
	for retry, want := range []time.Duration{BaseBackoff, 2 * BaseBackoff, 4 * BaseBackoff,
		8 * BaseBackoff, 16 * BaseBackoff, 32 * BaseBackoff, MaxBackoff, MaxBackoff} {
		d := pol.Backoff(url, retry)
		if d < want/2 || d >= want {
			t.Errorf("Backoff(retry=%d) = %v, want in [%v, %v)", retry, d, want/2, want)
		}
		if d2 := pol.Backoff(url, retry); d2 != d {
			t.Errorf("Backoff(retry=%d) not deterministic: %v vs %v", retry, d, d2)
		}
	}
	if pol.Backoff(url, 0) == pol.Backoff("http://x/q.html", 0) {
		t.Error("jitter should differ across URLs")
	}
}

// TestRetryRecoversTransient: a URL that fails its first two GETs succeeds
// with MaxRetries=3, the sleeper records exactly the policy's backoff
// schedule, and the retry count is surfaced per access and per URL.
func TestRetryRecoversTransient(t *testing.T) {
	u, ms := testSite(t)
	urls := profURLs(t, u)
	srv := newFailNServer(ms, 2)
	pol := RetryPolicy{MaxRetries: 3, Seed: 7}
	slp := &InstantSleeper{}
	tr := NewTransport(srv, u.Scheme, pol, slp, 0)

	_, traffic, err := tr.Get(context.Background(), sitegen.ProfPage, urls[0])
	if err != nil {
		t.Fatalf("fetch with retries should recover: %v", err)
	}
	if got := srv.count(urls[0]); got != 3 {
		t.Errorf("server saw %d GETs, want 3 (two failures + success)", got)
	}
	if traffic.Retries != 2 || tr.RetriesFor(urls[0]) != 2 {
		t.Errorf("Retries = %d, RetriesFor = %d, want 2 and 2", traffic.Retries, tr.RetriesFor(urls[0]))
	}
	want := []time.Duration{pol.Backoff(urls[0], 0), pol.Backoff(urls[0], 1)}
	got := slp.Slept()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("backoff waits = %v, want %v", got, want)
	}
}

// TestRetryExhaustion: when the fault outlives the retry budget the final
// transient error surfaces.
func TestRetryExhaustion(t *testing.T) {
	u, ms := testSite(t)
	urls := profURLs(t, u)
	srv := newFailNServer(ms, 3)
	tr := NewTransport(srv, u.Scheme, RetryPolicy{MaxRetries: 2}, &InstantSleeper{}, 0)

	_, traffic, err := tr.Get(context.Background(), sitegen.ProfPage, urls[0])
	if !errors.Is(err, errBadURL) {
		t.Fatalf("err = %v, want errBadURL after exhausting retries", err)
	}
	if got := srv.count(urls[0]); got != 3 || traffic.Retries != 2 {
		t.Errorf("server saw %d GETs with %d retries, want 3 (1 + 2 retries)", got, traffic.Retries)
	}
}

// TestNotFoundNotRetried: a permanently-missing page costs exactly one
// network operation, GET or HEAD, whatever the retry budget.
func TestNotFoundNotRetried(t *testing.T) {
	u, ms := testSite(t)
	const gone = "http://univ.example.edu/no-such-page.html"
	cs := newFailNServer(ms, 0) // never fails, but counts server GETs
	tr := NewTransport(cs, u.Scheme, RetryPolicy{MaxRetries: 5}, &InstantSleeper{}, 0)

	_, traffic, err := tr.Get(context.Background(), sitegen.ProfPage, gone)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if got := cs.count(gone); got != 1 || traffic.Retries != 0 {
		t.Errorf("server saw %d GETs with %d retries, want 1 and 0", got, traffic.Retries)
	}
	if _, traffic, err = tr.Head(context.Background(), gone); !errors.Is(err, ErrNotFound) || traffic.Retries != 0 {
		t.Errorf("HEAD err = %v with %d retries, want ErrNotFound and 0", err, traffic.Retries)
	}
}

// truncOnceServer serves the first GET of each URL cut in half — a dropped
// connection mid-body — and the full page afterwards.
type truncOnceServer struct {
	*MemSite
	mu   sync.Mutex
	seen map[string]bool
}

func (s *truncOnceServer) Get(url string) (Page, error) {
	p, err := s.MemSite.Get(url)
	s.mu.Lock()
	first := !s.seen[url]
	s.seen[url] = true
	s.mu.Unlock()
	if err == nil && first {
		p.HTML = p.HTML[:len(p.HTML)/2]
	}
	return p, err
}

// TestTruncatedBodyRetried: the retry unit is GET plus wrap, so a body that
// arrives but does not wrap is retried like any transient failure.
func TestTruncatedBodyRetried(t *testing.T) {
	u, ms := testSite(t)
	urls := profURLs(t, u)
	srv := &truncOnceServer{MemSite: ms, seen: make(map[string]bool)}

	strict := NewTransport(srv, u.Scheme, RetryPolicy{}, nil, 0)
	if _, _, err := strict.Get(context.Background(), sitegen.ProfPage, urls[0]); err == nil {
		t.Fatal("a truncated body must not wrap")
	}
	tr := NewTransport(srv, u.Scheme, RetryPolicy{MaxRetries: 1}, &InstantSleeper{}, 0)
	got, traffic, err := tr.Get(context.Background(), sitegen.ProfPage, urls[1])
	if err != nil {
		t.Fatalf("retry after a truncated body should succeed: %v", err)
	}
	if traffic.Retries != 1 {
		t.Errorf("Retries = %d, want 1", traffic.Retries)
	}
	if want, _ := u.Instance.Page(sitegen.ProfPage, urls[1]); !got.Tuple.Equal(want) {
		t.Error("the retried page should wrap to the instance tuple")
	}
}

// stallOnceServer stalls the first GET and the first HEAD of each URL until
// the call's context is canceled, then serves normally — the shape of a
// hung TCP connection that a per-attempt deadline must break.
type stallOnceServer struct {
	*MemSite
	mu      sync.Mutex
	stalled map[string]bool
}

func (s *stallOnceServer) stall(ctx context.Context, key string) error {
	s.mu.Lock()
	stall := !s.stalled[key]
	s.stalled[key] = true
	s.mu.Unlock()
	if stall {
		<-ctx.Done()
		return ctx.Err()
	}
	return nil
}

func (s *stallOnceServer) GetContext(ctx context.Context, url string) (Page, error) {
	if err := s.stall(ctx, "GET "+url); err != nil {
		return Page{}, err
	}
	return s.MemSite.Get(url)
}

func (s *stallOnceServer) HeadContext(ctx context.Context, url string) (Meta, error) {
	if err := s.stall(ctx, "HEAD "+url); err != nil {
		return Meta{}, err
	}
	return s.MemSite.Head(url)
}

// hangOnceServer is the same hang behind the plain, context-free Server
// interface: the first GET of each URL blocks until the test releases it.
type hangOnceServer struct {
	*MemSite
	mu      sync.Mutex
	hung    map[string]bool
	release chan struct{}
}

func (s *hangOnceServer) Get(url string) (Page, error) {
	s.mu.Lock()
	hang := !s.hung[url]
	s.hung[url] = true
	s.mu.Unlock()
	if hang {
		<-s.release
	}
	return s.MemSite.Get(url)
}

// TestAttemptTimeoutBreaksStall: the per-attempt deadline abandons a
// stalled GET or HEAD and the retry succeeds — all without any wall-clock
// wait, because the deadline timer is the injected sleeper. A context-aware
// server is canceled; a plain one is abandoned in its goroutine.
func TestAttemptTimeoutBreaksStall(t *testing.T) {
	u, ms := testSite(t)
	urls := profURLs(t, u)
	ctx := context.Background()
	srv := &stallOnceServer{MemSite: ms, stalled: make(map[string]bool)}

	// Without retries the attempt deadline surfaces as ErrAttemptTimeout.
	strict := NewTransport(srv, u.Scheme, RetryPolicy{AttemptTimeout: time.Second}, &InstantSleeper{}, 0)
	if _, _, err := strict.Get(ctx, sitegen.ProfPage, urls[0]); !errors.Is(err, ErrAttemptTimeout) {
		t.Fatalf("GET err = %v, want ErrAttemptTimeout", err)
	}
	if _, _, err := strict.Head(ctx, urls[0]); !errors.Is(err, ErrAttemptTimeout) {
		t.Fatalf("HEAD err = %v, want ErrAttemptTimeout", err)
	}

	// With one retry the second attempt finds the server healed.
	tr := NewTransport(srv, u.Scheme, RetryPolicy{MaxRetries: 1, AttemptTimeout: time.Second}, &InstantSleeper{}, 0)
	if _, traffic, err := tr.Get(ctx, sitegen.ProfPage, urls[1]); err != nil || traffic.Retries != 1 {
		t.Fatalf("GET after a stalled attempt: err %v, %d retries; want success after 1", err, traffic.Retries)
	}
	if _, traffic, err := tr.Head(ctx, urls[1]); err != nil || traffic.Retries != 1 {
		t.Fatalf("HEAD after a stalled attempt: err %v, %d retries; want success after 1", err, traffic.Retries)
	}

	// A plain server cannot be canceled, so an instantly-firing deadline
	// would race the healed second attempt too: this one waits on a real,
	// short timer and backs off on a real one (under BaseBackoff).
	plain := &hangOnceServer{MemSite: ms, hung: make(map[string]bool), release: make(chan struct{})}
	defer close(plain.release)
	tr = NewTransport(plain, u.Scheme, RetryPolicy{MaxRetries: 1, AttemptTimeout: 50 * time.Millisecond}, nil, 0)
	if _, traffic, err := tr.Get(ctx, sitegen.ProfPage, urls[2]); err != nil || traffic.Retries != 1 {
		t.Fatalf("GET on a plain server after a hung attempt: err %v, %d retries; want success after 1", err, traffic.Retries)
	}
}

// TestWrapPanicBecomesFetchError: a wrapper panic on pathological input is
// contained — the caller sees an ordinary error. A nil page-scheme makes the
// wrapper dereference panic, standing in for any extraction bug a hostile
// page might trip.
func TestWrapPanicBecomesFetchError(t *testing.T) {
	_, panicked, err := safeWrap(nil, "http://hostile/", "<p>x</p>")
	if !panicked || err == nil || !strings.Contains(err.Error(), "wrapper panic") {
		t.Fatalf("safeWrap = panicked %v, err %v; want a wrapper-panic fetch error", panicked, err)
	}
}

// TestInFlightBound: however many goroutines fetch at once, the server
// never sees more simultaneous accesses than the transport's bound.
func TestInFlightBound(t *testing.T) {
	u, ms := testSite(t)
	ms.SetLatency(200 * time.Microsecond)
	urls := profURLs(t, u)
	tr := NewTransport(ms, u.Scheme, RetryPolicy{}, nil, 3)

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, url := range urls {
				if _, _, err := tr.Get(context.Background(), sitegen.ProfPage, url); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if peak := tr.PeakInFlight(); peak < 1 || peak > 3 {
		t.Errorf("peak in-flight = %d, want within [1, 3]", peak)
	}
}

// TestBatch covers the ordered bounded helper: every index runs once, any
// worker count (including non-positive) works, and the first error stops
// the batch without deadlocking the producer — with a single worker and an
// error on the first index the lone worker exits immediately and the
// producer must not block feeding the remaining jobs to nobody.
func TestBatch(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 4, 64} {
		hits := make([]int, 40)
		if err := Batch(len(hits), workers, func(i int) error { hits[i]++; return nil }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, n := range hits {
			if n != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
		for _, bad := range []int{0, 20} {
			result := make(chan error, 1)
			go func() {
				result <- Batch(40, workers, func(i int) error {
					if i == bad {
						return errBadURL
					}
					return nil
				})
			}()
			select {
			case err := <-result:
				if !errors.Is(err, errBadURL) {
					t.Fatalf("workers=%d bad=%d: err = %v, want the injected failure", workers, bad, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("workers=%d bad=%d: Batch deadlocked after a worker error", workers, bad)
			}
		}
	}
	if err := Batch(0, 4, func(int) error { return errBadURL }); err != nil {
		t.Fatalf("empty batch: %v", err)
	}

	// At most workers calls run at once, and with calls that wait, that
	// many do.
	for _, workers := range []int{1, 2, 4} {
		var running, peak atomic.Int32
		err := Batch(40, workers, func(int) error {
			n := running.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := int(peak.Load()); got > workers {
			t.Errorf("workers=%d: %d calls ran at once", workers, got)
		} else if got < workers {
			t.Logf("workers=%d: at most %d calls ran at once", workers, got)
		}
	}

	// After the first error no new index starts. Index 0 fails while every
	// other started call waits for that failure, and then a little longer,
	// so only the calls already started can run, not the whole batch (the
	// bound leaves one more per worker for a slow schedule).
	for _, workers := range []int{1, 2, 4, 8} {
		var started atomic.Int32
		failed := make(chan struct{})
		err := Batch(1000, workers, func(i int) error {
			started.Add(1)
			if i == 0 {
				close(failed)
				return errBadURL
			}
			<-failed
			time.Sleep(10 * time.Millisecond)
			return nil
		})
		if !errors.Is(err, errBadURL) {
			t.Fatalf("workers=%d: err = %v, want the injected failure", workers, err)
		}
		if got := int(started.Load()); got > 2*workers {
			t.Errorf("workers=%d: %d calls started, want at most %d after index 0 failed", workers, got, 2*workers)
		}
	}
}

// TestDefaultHTTPClientHasTimeout: an HTTPServer without an injected client
// must not fall back to the timeout-less http.DefaultClient.
func TestDefaultHTTPClientHasTimeout(t *testing.T) {
	h := &HTTPServer{Base: "http://example.test"}
	c := h.client()
	if c.Timeout != DefaultHTTPTimeout {
		t.Errorf("default client timeout = %v, want %v", c.Timeout, DefaultHTTPTimeout)
	}
}
