package site

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ulixes/internal/adm"
	"ulixes/internal/hypertext"
	"ulixes/internal/nested"
)

// DefaultFetchWorkers bounds the concurrent accesses of one batch, playing
// the role of a polite crawler's connection limit.
const DefaultFetchWorkers = 8

// Traffic is what reaching one page cost beyond the result itself, summed
// over the retry loop. Callers fold it into their own counters — the page
// store per query and store-wide, the materialized view into its §8 ledger —
// so hedges, retries and fast-fails are reported next to, never inside, the
// paper's distinct-page-access cost.
type Traffic struct {
	// Heads is 1 when a light connection physically reached the network (a
	// breaker fast-fail costs none), else 0.
	Heads int
	// Retries is the number of attempts after the first.
	Retries int
	// Hedges is the number of extra requests the guard issued; HedgeWins is
	// how many of them answered first.
	Hedges    int
	HedgeWins int
	// FastFails is the number of attempts an open breaker rejected without
	// touching the network.
	FastFails int
	// WrapPanics is the number of downloaded bodies whose wrapper panicked.
	WrapPanics int
}

// Add folds another access's traffic into t.
func (t *Traffic) Add(o Traffic) {
	t.Heads += o.Heads
	t.Retries += o.Retries
	t.Hedges += o.Hedges
	t.HedgeWins += o.HedgeWins
	t.FastFails += o.FastFails
	t.WrapPanics += o.WrapPanics
}

func (t *Traffic) note(out AccessOutcome) {
	t.Hedges += out.Hedges
	if out.HedgeWon {
		t.HedgeWins++
	}
	if out.FastFailed {
		t.FastFails++
	}
}

// Fetched is one downloaded and wrapped page.
type Fetched struct {
	Tuple nested.Tuple
	// Size is the HTML byte size of the download.
	Size int
	// LastModified is the modification date the site reported.
	LastModified time.Time
}

// Transport is the one resilient way a page (GET + wrap) or its modification
// date (HEAD, the §8 light connection) is reached. It owns the upgrade from a
// plain Server to the context-aware and outcome-reporting interfaces, the
// retry loop with backoff, the per-attempt deadline, the optional bound on
// simultaneous network accesses and the in-flight high-water mark. It keeps
// no pages and counts no accesses: the page store and the materialized view
// sit on top of it and do that.
type Transport struct {
	scheme  *adm.Scheme
	get     func(ctx context.Context, url string) (Page, AccessOutcome, error)
	head    func(ctx context.Context, url string) (Meta, AccessOutcome, error)
	getCtx  bool // get honors context cancelation
	headCtx bool // head honors context cancelation
	policy  RetryPolicy
	sleeper Sleeper
	sem     chan struct{} // bound on in-flight network accesses; nil = unbounded

	mu       sync.Mutex
	inflight int            // guarded by mu
	peak     int            // guarded by mu
	perURL   map[string]int // retry attempts per URL (diagnostics); guarded by mu
}

// NewTransport wraps a server. The zero policy is a single attempt with no
// deadline; a nil sleeper waits on real timers; maxInFlight > 0 bounds the
// simultaneous network accesses (0 leaves them to the callers' batches).
func NewTransport(server Server, scheme *adm.Scheme, policy RetryPolicy, sleeper Sleeper, maxInFlight int) *Transport {
	if sleeper == nil {
		sleeper = stdSleeper{}
	}
	t := &Transport{scheme: scheme, policy: policy, sleeper: sleeper, perURL: make(map[string]int)}
	if maxInFlight > 0 {
		t.sem = make(chan struct{}, maxInFlight)
	}
	// Prefer the guard layer's outcome-reporting interface (hedge and
	// fast-fail accounting), then the context-aware server, then the plain
	// one.
	if os, ok := server.(OutcomeServer); ok {
		t.get, t.head = os.GetOutcome, os.HeadOutcome
		t.getCtx, t.headCtx = true, true
		return t
	}
	t.get = func(_ context.Context, url string) (Page, AccessOutcome, error) {
		p, err := server.Get(url)
		return p, AccessOutcome{}, err
	}
	if cs, ok := server.(ContextServer); ok {
		t.getCtx = true
		t.get = func(ctx context.Context, url string) (Page, AccessOutcome, error) {
			p, err := cs.GetContext(ctx, url)
			return p, AccessOutcome{}, err
		}
	}
	t.head = func(_ context.Context, url string) (Meta, AccessOutcome, error) {
		m, err := server.Head(url)
		return m, AccessOutcome{}, err
	}
	if hs, ok := server.(ContextHeadServer); ok {
		t.headCtx = true
		t.head = func(ctx context.Context, url string) (Meta, AccessOutcome, error) {
			m, err := hs.HeadContext(ctx, url)
			return m, AccessOutcome{}, err
		}
	}
	return t
}

// Get downloads the page at url and wraps it as an instance of the named
// page-scheme. The retry unit is GET plus wrap, so a truncated body is
// retried like any transient failure; a missing page and an open breaker
// are not.
func (t *Transport) Get(ctx context.Context, schemeName, url string) (Fetched, Traffic, error) {
	ps := t.scheme.Page(schemeName)
	if ps == nil {
		return Fetched{}, Traffic{}, fmt.Errorf("site: fetch: unknown page-scheme %q", schemeName)
	}
	panics := 0
	f, tr, err := retry(ctx, t, url, func() (Fetched, AccessOutcome, error) {
		p, out, err := attempt(ctx, t, "GET", url, t.getCtx, t.get)
		if err != nil {
			return Fetched{}, out, err
		}
		tuple, panicked, err := safeWrap(ps, url, p.HTML)
		if panicked {
			panics++
		}
		return Fetched{Tuple: tuple, Size: len(p.HTML), LastModified: p.LastModified}, out, err
	})
	tr.WrapPanics = panics
	return f, tr, err
}

// Head opens one light connection to url under the retry policy.
func (t *Transport) Head(ctx context.Context, url string) (Meta, Traffic, error) {
	reached := 0
	m, tr, err := retry(ctx, t, url, func() (Meta, AccessOutcome, error) {
		m, out, err := attempt(ctx, t, "HEAD", url, t.headCtx, t.head)
		if !out.FastFailed {
			reached = 1
		}
		return m, out, err
	})
	tr.Heads = reached
	return m, tr, err
}

// RetriesFor returns the retry attempts spent on one URL.
func (t *Transport) RetriesFor(url string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.perURL[url]
}

// PeakInFlight returns the maximum number of simultaneous network accesses
// observed — never above the in-flight bound when one is set.
func (t *Transport) PeakInFlight() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peak
}

// retry runs once until it succeeds, fails permanently or exhausts the
// policy's budget, backing off (exponentially, with deterministic jitter)
// between attempts.
func retry[T any](ctx context.Context, t *Transport, url string, once func() (T, AccessOutcome, error)) (T, Traffic, error) {
	var tr Traffic
	for attempt := 0; ; attempt++ {
		v, out, err := once()
		tr.note(out)
		if err == nil {
			return v, tr, nil
		}
		var zero T
		if !retryable(err) || attempt >= t.policy.MaxRetries {
			return zero, tr, err
		}
		tr.Retries++
		t.mu.Lock()
		t.perURL[url]++
		t.mu.Unlock()
		if t.sleeper.Sleep(ctx, t.policy.Backoff(url, attempt)) != nil {
			return zero, tr, err
		}
	}
}

// attempt performs one network call inside the in-flight bound and under the
// policy's per-attempt deadline. The deadline is driven by the transport's
// sleeper, so deterministic tests make it fire instantly. A context-aware
// server has its call canceled when the deadline fires; a plain Server is
// raced in a goroutine and abandoned — the goroutine drains when (if) the
// server finally answers.
func attempt[T any](ctx context.Context, t *Transport, verb, url string, aware bool, call func(context.Context, string) (T, AccessOutcome, error)) (T, AccessOutcome, error) {
	var zero T
	if t.sem != nil {
		select {
		case t.sem <- struct{}{}:
			defer func() { <-t.sem }()
		case <-ctx.Done():
			return zero, AccessOutcome{}, ctx.Err()
		}
	}
	t.mu.Lock()
	t.inflight++
	if t.inflight > t.peak {
		t.peak = t.inflight
	}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		t.inflight--
		t.mu.Unlock()
	}()
	timeout := t.policy.AttemptTimeout
	if timeout <= 0 {
		return call(ctx, url)
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	timedOut := make(chan struct{})
	go func() {
		if t.sleeper.Sleep(actx, timeout) == nil {
			close(timedOut)
			cancel()
		}
	}()
	type result struct {
		v   T
		out AccessOutcome
		err error
	}
	var r result
	if aware {
		r.v, r.out, r.err = call(actx, url)
	} else {
		ch := make(chan result, 1)
		go func() {
			v, out, err := call(actx, url)
			ch <- result{v, out, err}
		}()
		select {
		case r = <-ch:
		case <-actx.Done():
			r.err = actx.Err()
		}
	}
	if r.err != nil {
		// A cancelation caused by the deadline goroutine is a timeout, not
		// a caller abort.
		select {
		case <-timedOut:
			return zero, r.out, fmt.Errorf("%w: %s %s after %s", ErrAttemptTimeout, verb, url, timeout)
		default:
		}
	}
	return r.v, r.out, r.err
}

// safeWrap wraps a downloaded page, converting a wrapper panic on hostile or
// pathological HTML into an ordinary fetch error: the asking query fails
// that one access (or degrades past it) instead of the panic unwinding
// through whatever goroutine — a pipelined evaluator worker, a singleflight
// leader serving other queries — happened to fetch the page.
func safeWrap(ps *adm.PageScheme, url, html string) (t nested.Tuple, panicked bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			t, panicked, err = nested.Tuple{}, true, fmt.Errorf("site: wrapper panic on %s: %v", url, p)
		}
	}()
	t, err = hypertext.WrapPage(ps, url, html)
	return t, false, err
}

// Batch calls do(i) for every i in [0, n) on at most workers goroutines,
// the caller's among them, and returns the first error, after which no
// further index is started. Callers write results into slices indexed by i,
// which is what keeps batches ordered; a caller that degrades instead of
// aborting records the error itself and returns nil. With one worker the
// calls run in order on the calling goroutine.
func Batch(n, workers int, do func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := do(i); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64 // the next index to start; n or more once one failed
	var once sync.Once
	var firstErr error
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			if err := do(i); err != nil {
				once.Do(func() { firstErr = err })
				next.Store(int64(n))
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return firstErr
}
