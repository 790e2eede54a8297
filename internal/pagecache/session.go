package pagecache

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"ulixes/internal/nested"
	"ulixes/internal/site"
)

// SessionOptions tunes one query's view of the shared store.
type SessionOptions struct {
	// PageBudget caps the number of distinct pages the query may access
	// (0 = unlimited). The budget counts logical accesses — a cache hit
	// spends budget like a download does, because the budget bounds query
	// breadth, not network luck.
	PageBudget int
	// Degraded turns fetch failures in batches into partial results plus a
	// *site.PartialError. A budget overrun is never degraded away: it
	// aborts the query.
	Degraded bool
	// Workers bounds the concurrent network accesses one FetchAllCtx batch
	// issues (0 = the cache's configured bound); see engine.ExecOptions.Workers
	// for what that makes of a query.
	Workers int
}

// SessionStats are the per-query access counters. Every distinct page the
// query touched resolves to exactly one of hit / revalidation / fetch /
// stale-serve, so
//
//	Accesses = CacheHits + Revalidations + Fetches + Stale
//
// and Accesses is the paper's distinct-page cost C(E) — invariant whether
// the store was cold or warm — while Fetches is what the query actually
// cost the network. (An access that failed is counted in Accesses alone:
// the invariant is a property of complete answers.)
type SessionStats struct {
	// Accesses is the number of distinct pages the query touched.
	Accesses int
	// Fetches is the number of accesses resolved by a physical GET, whether
	// this query's store fill issued it or the query joined another query's
	// fill of the same URL.
	Fetches int
	// SharedFetches ⊆ Fetches is the number of those GETs another query
	// led: summed over the sessions of a store, Fetches − SharedFetches is
	// exactly the GETs the site saw.
	SharedFetches int
	// CacheHits is the number of accesses served fresh from the store.
	CacheHits int
	// Revalidations is the number of accesses a light connection confirmed
	// unchanged.
	Revalidations int
	// LightConnections is the number of HEADs issued for this query's
	// accesses (revalidations plus changed-page checks).
	LightConnections int
	// Bytes is the HTML bytes of this query's physical fetches.
	Bytes int64
	// Stale is the number of accesses answered from an expired entry
	// because the origin's breaker was open — successful but degraded.
	Stale int
	// Retries is the number of retry attempts spent on this query's
	// accesses — network operations beyond the paper's distinct-page cost.
	Retries int
	// Hedges is the number of extra (hedged) requests the guard issued for
	// this query's accesses; HedgeWins is how many answered first.
	Hedges    int
	HedgeWins int
	// BreakerFastFails is the number of access attempts an open breaker
	// rejected without touching the network for this query.
	BreakerFastFails int
}

// Session is one query's handle on a page store and the single resolve-once
// layer of the access path. It implements site.PageSource: the engine
// evaluates every plan through one, over the shared cross-query store or
// over a private store built for the query.
//
// Within a session every URL is resolved at most once, however many
// pipeline branches ask for it at the same time: the first asker accesses
// the store, the others wait for its answer, and one access and one outcome
// are counted. The tuple is pinned locally, so one query sees a consistent
// snapshot of each page even if the shared entry is evicted or refreshed
// mid-query, and a page found permanently missing is refused from then on
// without touching the network again. A transient failure is handed to the
// askers that shared it and not pinned: a later ask tries the store again.
type Session struct {
	c    *Cache
	opts SessionOptions

	// mu may be held while taking the store's lock (an inline hit is checked
	// and recorded atomically); the store never calls back into a session.
	mu     sync.Mutex
	pages  map[string]*resolution // every URL the query asked for; guarded by mu
	failed map[string]error       // URLs degraded batches left out; guarded by mu
	stats  SessionStats           // guarded by mu
}

// resolution is one URL's answer within a session. The fields are written
// once, under Session.mu, before done is closed.
type resolution struct {
	done  chan struct{}
	tuple nested.Tuple
	stale bool // answered from an expired entry
	err   error
}

// NewSession opens a per-query view of the store.
func (c *Cache) NewSession(opts SessionOptions) *Session {
	if opts.Workers <= 0 {
		opts.Workers = c.cfg.Workers
	}
	return &Session{
		c:      c,
		opts:   opts,
		pages:  make(map[string]*resolution),
		failed: make(map[string]error),
	}
}

// Stats returns a snapshot of the session's counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Failures returns structured per-URL diagnostics for the pages degraded
// batches left out, sorted by URL, with the retry attempts the store spent
// on each.
func (s *Session) Failures() []site.FetchFailure {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]site.FetchFailure, 0, len(s.failed))
	for u, err := range s.failed {
		out = append(out, site.FetchFailure{URL: u, Err: err, Retries: s.c.RetriesFor(u)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// StaleURLs returns the sorted URLs this session answered from expired
// cache entries because the origin's breaker was open.
func (s *Session) StaleURLs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for u, r := range s.pages {
		if r.stale {
			out = append(out, u)
		}
	}
	sort.Strings(out)
	return out
}

// settled is the done channel of every resolution answered inline: closed
// once, shared, never closed again.
var settled = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// errAborted marks the accesses of a failed batch that never reached the
// store.
var errAborted = errors.New("pagecache: batch aborted")

// askLocked is the session half of one access. It returns the URL's
// resolution when the query already has one to share — in flight, pinned,
// or permanently missing — and nil when the caller must resolve the URL:
// on a first ask, which is budget-checked and counted, or again after a
// transient failure. The caller holds s.mu.
func (s *Session) askLocked(url string) (*resolution, error) {
	r, asked := s.pages[url]
	if !asked {
		if s.opts.PageBudget > 0 && len(s.pages) >= s.opts.PageBudget {
			return nil, fmt.Errorf("%w: budget %d, next page %s", ErrBudgetExceeded, s.opts.PageBudget, url)
		}
		s.stats.Accesses++
		return nil, nil
	}
	// Only a transient failure is asked of the store again; an access its
	// batch abandoned never reached the store, whatever stopped the batch.
	if r.err != nil && (!errors.Is(r.err, site.ErrNotFound) || errors.Is(r.err, errAborted)) {
		return nil, nil
	}
	return r, nil
}

// leadLocked registers the caller as the resolver of url; the caller holds
// s.mu and must settle the resolution.
func (s *Session) leadLocked(url string) *resolution {
	r := &resolution{done: make(chan struct{})}
	s.pages[url] = r
	return r
}

// wait shares another asker's resolution.
func (s *Session) wait(ctx context.Context, r *resolution) (nested.Tuple, error) {
	select {
	case <-r.done:
	case <-ctx.Done():
		return nested.Tuple{}, ctx.Err()
	}
	return r.tuple, r.err
}

// resolve accesses the store for a URL the caller leads and settles its
// resolution.
func (s *Session) resolve(ctx context.Context, schemeName, url string, r *resolution, now *instant) (nested.Tuple, error) {
	res, err := s.c.access(ctx, schemeName, url, now)
	s.mu.Lock()
	s.recordLocked(res, err)
	r.tuple, r.stale, r.err = res.tuple, res.stale, err
	s.mu.Unlock()
	close(r.done)
	return r.tuple, err
}

// recordLocked counts one access's outcome and traffic; the caller holds
// s.mu.
func (s *Session) recordLocked(res access, err error) {
	s.stats.LightConnections += res.net.Heads
	s.stats.Retries += res.net.Retries
	s.stats.Hedges += res.net.Hedges
	s.stats.HedgeWins += res.net.HedgeWins
	s.stats.BreakerFastFails += res.net.FastFails
	if err != nil {
		return
	}
	switch {
	case res.stale:
		s.stats.Stale++
	case res.fetched:
		s.stats.Fetches++
		s.stats.Bytes += int64(res.size)
		if res.joined {
			s.stats.SharedFetches++
		}
	case res.revalidated:
		s.stats.Revalidations++
	default:
		s.stats.CacheHits++
	}
}

// FetchCtx implements site.PageSource: one page access through the store,
// budget-checked, resolved once and pinned for the rest of the query.
func (s *Session) FetchCtx(ctx context.Context, schemeName, url string) (nested.Tuple, error) {
	s.mu.Lock()
	r, err := s.askLocked(url)
	lead := err == nil && r == nil
	if lead {
		r = s.leadLocked(url)
	}
	s.mu.Unlock()
	switch {
	case err != nil:
		return nested.Tuple{}, err
	case lead:
		return s.resolve(ctx, schemeName, url, r, &instant{})
	}
	return s.wait(ctx, r)
}

// pending is one access of a batch left after the inline pass: a lead to
// resolve through the store, or another asker's resolution to wait on.
type pending struct {
	i   int // index in the batch
	r   *resolution
	now instant
}

// FetchAllCtx implements site.PageSource: a batch of accesses preserving
// input order. Every access the query has already pinned or the store holds
// fresh is resolved on the calling goroutine, counted exactly as FetchCtx
// counts it; only the accesses that need the network — misses, expired
// entries, retries after a transient failure — go to a pool of at most
// Workers goroutines, and URLs another branch of the query is resolving are
// waited on. In strict mode the first error aborts the batch; in degraded
// mode unreachable pages are left out and reported in a *site.PartialError
// — except a budget overrun, which always aborts.
func (s *Session) FetchAllCtx(ctx context.Context, schemeName string, urls []string) ([]nested.Tuple, error) {
	out := make([]nested.Tuple, len(urls))
	errs := make([]error, len(urls))
	keep := func(i int, t nested.Tuple, err error) error {
		if err != nil && s.opts.Degraded && !errors.Is(err, ErrBudgetExceeded) {
			// Leave the page out and keep going: the batch degrades
			// instead of aborting.
			errs[i] = err
			return nil
		}
		out[i] = t
		return err
	}
	var leads, waits []pending
	for i, u := range urls {
		s.mu.Lock()
		r, err := s.askLocked(u)
		if err == nil && r == nil {
			var now instant
			if res, ok := s.c.hit(u, &now); ok {
				s.recordLocked(res, nil)
				r = &resolution{done: settled, tuple: res.tuple}
				s.pages[u] = r
			} else {
				if leads == nil {
					leads = make([]pending, 0, len(urls)-i)
				}
				leads = append(leads, pending{i: i, r: s.leadLocked(u), now: now})
			}
		}
		s.mu.Unlock()
		if r != nil {
			select {
			case <-r.done:
				err = keep(i, r.tuple, r.err)
			default:
				waits = append(waits, pending{i: i, r: r})
			}
		}
		if err != nil {
			s.abandon(urls, leads, err)
			return nil, err
		}
	}
	if len(leads) > 0 {
		err := site.Batch(len(leads), s.opts.Workers, func(k int) error {
			l := &leads[k]
			t, err := s.resolve(ctx, schemeName, urls[l.i], l.r, &l.now)
			return keep(l.i, t, err)
		})
		if err != nil {
			s.abandon(urls, leads, err)
			return nil, err
		}
	}
	for _, w := range waits {
		t, err := s.wait(ctx, w.r)
		if err := keep(w.i, t, err); err != nil {
			return nil, err
		}
	}
	return s.finish(urls, out, errs)
}

// abandon settles the leads a failed batch never started, so no other
// branch of the query waits on them forever: they share the error that
// stopped the batch, and a later ask accesses the URL afresh.
func (s *Session) abandon(urls []string, leads []pending, cause error) {
	for _, l := range leads {
		select {
		case <-l.r.done:
			continue
		default:
		}
		s.mu.Lock()
		l.r.err = fmt.Errorf("%w before %s: %w", errAborted, urls[l.i], cause)
		s.mu.Unlock()
		close(l.r.done)
	}
}

// finish assembles a batch's answer: the pages in input order, and a
// *site.PartialError for the ones degraded mode left out or served stale.
func (s *Session) finish(urls []string, out []nested.Tuple, errs []error) ([]nested.Tuple, error) {
	kept := out[:0] // compacted in place: kept never overtakes the index read
	var failures []site.FetchFailure
	var staleList []string
	s.mu.Lock()
	for i, u := range urls {
		if errs[i] != nil {
			s.failed[u] = errs[i]
			failures = append(failures, site.FetchFailure{URL: u, Err: errs[i], Retries: s.c.RetriesFor(u)})
			continue
		}
		kept = append(kept, out[i])
		if s.pages[u].stale {
			staleList = append(staleList, u)
		}
	}
	s.mu.Unlock()
	sort.Strings(staleList)
	if len(failures) == 0 && len(staleList) == 0 {
		return kept, nil
	}
	return kept, &site.PartialError{Failures: failures, Stale: staleList}
}

// Session implements site.PageSource.
var _ site.PageSource = (*Session)(nil)
