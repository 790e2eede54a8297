package site

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"
)

// The retry backoff schedule.
const (
	// BaseBackoff is the backoff before the first retry; it doubles per
	// retry.
	BaseBackoff = 50 * time.Millisecond
	// MaxBackoff caps the exponential backoff growth.
	MaxBackoff = 2 * time.Second
)

// ErrAttemptTimeout marks a fetch attempt that exceeded the policy's
// per-attempt deadline. It is retryable: the next attempt gets a fresh
// deadline.
var ErrAttemptTimeout = errors.New("site: fetch attempt deadline exceeded")

// ContextServer is the context-aware variant of Server. A server that
// implements it (the fault-injection wrapper does) has its downloads
// canceled when the per-attempt deadline fires, instead of being abandoned
// in a goroutine.
type ContextServer interface {
	GetContext(ctx context.Context, url string) (Page, error)
}

// ContextHeadServer is the context-aware variant of Head. Light
// connections through it are canceled promptly when the request context
// ends, which matters once stalls can hit HEADs too.
type ContextHeadServer interface {
	HeadContext(ctx context.Context, url string) (Meta, error)
}

// AccessOutcome reports what the per-host resilience layer (internal/guard)
// did for one attempt, beyond the result itself. The Transport sums these
// into the access's Traffic so the paper's distinct-page-access cost stays
// exact: hedges and fast-fails are reported separately, never folded into
// the page count.
type AccessOutcome struct {
	// Hedges is the number of extra requests issued for the access.
	Hedges int
	// HedgeWon reports that the hedge, not the primary, produced the answer.
	HedgeWon bool
	// FastFailed reports that an open circuit breaker rejected the access
	// without any network activity (the error wraps ErrBreakerOpen).
	FastFailed bool
}

// OutcomeServer is implemented by the guard layer: downloads and light
// connections that also report the resilience machinery's actions. The
// Transport type-asserts for it, so wrapping a server with a guard
// transparently enables per-query hedge/fast-fail accounting.
type OutcomeServer interface {
	GetOutcome(ctx context.Context, url string) (Page, AccessOutcome, error)
	HeadOutcome(ctx context.Context, url string) (Meta, AccessOutcome, error)
}

// ErrBreakerOpen marks a fetch that was fast-failed by an open circuit
// breaker (internal/guard) without touching the network. It is classified
// as non-retryable: retrying immediately would hit the same open breaker,
// and the retry loop terminating on it is what makes degraded-mode access
// counts deterministic. Callers holding an expired cached copy serve it
// stale instead (see pagecache).
var ErrBreakerOpen = errors.New("site: circuit breaker open")

// RetryPolicy configures the Transport's resilience to a misbehaving site:
// how many times a failed access is retried, how long to back off between
// attempts, and how long a single attempt may run. The zero value disables
// retries and deadlines.
type RetryPolicy struct {
	// MaxRetries is the number of extra attempts after the first (0 means
	// a single attempt, no retries).
	MaxRetries int
	// AttemptTimeout bounds each individual attempt; a stalled download is
	// abandoned and retried. 0 disables the per-attempt deadline.
	AttemptTimeout time.Duration
	// Seed drives the deterministic backoff jitter: the wait before retry k
	// of a URL is a pure function of (Seed, URL, k), so two runs with the
	// same seed sleep identically.
	Seed uint64
}

// Backoff returns the wait before retry number `retry` (0-based) of the
// URL: exponential doubling from BaseBackoff capped at MaxBackoff, with
// deterministic half-interval jitter so synchronized retry storms spread
// out reproducibly.
func (p RetryPolicy) Backoff(url string, retry int) time.Duration {
	d := BaseBackoff
	for i := 0; i < retry && d < MaxBackoff; i++ {
		d *= 2
	}
	if d > MaxBackoff {
		d = MaxBackoff
	}
	// Equal jitter: keep half, hash the other half into [0, d/2). The
	// murmur-style finalizer fixes FNV's weak high-bit avalanche, so the
	// jitter of consecutive retries is uncorrelated.
	h := fnv.New64a()
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(p.Seed >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(url))
	h.Write([]byte{byte(retry), byte(retry >> 8)})
	m := h.Sum64()
	m ^= m >> 33
	m *= 0xff51afd7ed558ccd
	m ^= m >> 33
	m *= 0xc4ceb9fe1a85ec53
	m ^= m >> 33
	frac := float64(m>>11) / float64(1<<53)
	half := d / 2
	return half + time.Duration(frac*float64(half))
}

// Sleeper abstracts waiting, so backoff and per-attempt deadlines are
// injectable: tests install an instant sleeper and chaos runs complete
// without a single wall-clock sleep, while production uses real timers.
type Sleeper interface {
	// Sleep waits for d or until the context is canceled, returning the
	// context's error in the latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// StdSleeper returns the default Sleeper, waiting on real timers.
func StdSleeper() Sleeper { return stdSleeper{} }

// stdSleeper waits on real timers.
type stdSleeper struct{}

func (stdSleeper) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// InstantSleeper is a Sleeper that returns immediately, recording every
// requested duration. Deterministic tests use it to assert the backoff
// schedule without waiting for it.
type InstantSleeper struct {
	mu    sync.Mutex
	slept []time.Duration
}

// Sleep implements Sleeper without waiting.
func (s *InstantSleeper) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	s.slept = append(s.slept, d)
	s.mu.Unlock()
	return nil
}

// Slept returns the recorded wait requests in order.
func (s *InstantSleeper) Slept() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]time.Duration, len(s.slept))
	copy(out, s.slept)
	return out
}

// retryable classifies an error: a missing page is permanent and an open
// breaker stays open for the whole retry window, everything else (transient
// injections, timeouts, malformed content) may succeed on a later attempt.
func retryable(err error) bool {
	return err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrBreakerOpen)
}

// FetchFailure is one URL a degraded batch could not fetch, with the final
// error after retries and the number of retry attempts spent on it —
// the structured per-page diagnostic a serving layer returns to clients.
type FetchFailure struct {
	URL string
	Err error
	// Retries is how many retry attempts were spent on the URL before
	// giving up (0 means the first attempt's error was final).
	Retries int
}

// PartialError is the structured multi-error of a degraded FetchAll: the
// batch produced results for every reachable URL, and these are the ones it
// had to leave out. Callers that opt into graceful degradation (the
// navigation evaluator does) treat it as "pages missing", not as failure.
type PartialError struct {
	Failures []FetchFailure
	// Stale lists URLs that WERE answered, but from an expired cached copy
	// because the origin's circuit breaker was open (stale-serving
	// degradation). Stale pages are present in the batch's results — they
	// mark reduced freshness, not missing data — so a PartialError may
	// carry stale URLs and no failures at all.
	Stale []string
}

// Error renders the failed URLs.
func (e *PartialError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "site: %d of batch unreachable:", len(e.Failures))
	for i, f := range e.Failures {
		if i == 4 {
			fmt.Fprintf(&sb, " … and %d more", len(e.Failures)-i)
			break
		}
		if f.Retries > 0 {
			fmt.Fprintf(&sb, " %s (%v; after %d retries);", f.URL, f.Err, f.Retries)
		} else {
			fmt.Fprintf(&sb, " %s (%v);", f.URL, f.Err)
		}
	}
	if len(e.Stale) > 0 {
		fmt.Fprintf(&sb, " (%d served stale)", len(e.Stale))
	}
	return sb.String()
}

// Unwrap exposes the per-URL errors to errors.Is/As.
func (e *PartialError) Unwrap() []error {
	out := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		out[i] = f.Err
	}
	return out
}
