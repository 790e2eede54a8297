// Package pagecache is the page store every query navigates through: a
// concurrent byte-bounded LRU of wrapped pages over one site.Transport.
// Shared across queries (ulixesd), many simultaneous queries draw from it,
// so a workload of repeated queries pays for each page once instead of
// re-downloading hub pages per query; built privately for one query (the
// engine's default), it is that query's download-once page set. Either way
// the query's own view is a Session, the resolve-once ledger of its
// accesses.
//
// Freshness follows §8 of the paper. Every entry carries the Last-Modified
// date the site reported and a per-scheme TTL lease. Within the lease the
// page is served straight from the store (a cache hit — zero network
// accesses). When the lease expires the store does NOT blindly re-download:
// it opens a "light connection" (HTTP HEAD, exchanging just an error flag
// and the modification date) and re-GETs the page only if it actually
// changed on the site — the materialized-view maintenance protocol applied
// to a query-serving cache. Both kinds of traffic are counted, per query
// (Session) and globally (Stats), so measured costs stay exact even though
// physical fetches are shared.
//
// Concurrent queries that miss on the same URL are coalesced (singleflight
// shared across queries): the site sees exactly one GET per distinct URL no
// matter how many queries race. A failed or degraded fetch never poisons
// the store — errors are returned to the asking queries and nothing is
// cached, so a chaos-injected truncated page disappears with the query that
// saw it.
//
// The package reads no ambient wall clock (the nowallclock lint enforces
// it): time comes from an injectable Clock, so TTL behaviour is exactly
// reproducible in tests and experiments.
package pagecache

import (
	"container/list"
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
	"ulixes/internal/site"
)

// Forever is the TTL sentinel for entries that never expire: once cached, a
// page is served from the store without ever revalidating.
const Forever = time.Duration(math.MaxInt64)

// ErrBudgetExceeded reports that a query hit its per-query page budget: the
// next page access would exceed the maximum number of distinct pages the
// query is allowed to touch. The serving layer maps it to a client error.
var ErrBudgetExceeded = errors.New("pagecache: query page budget exceeded")

// Config tunes a Cache.
type Config struct {
	// MaxBytes bounds the total HTML bytes retained (0 = unbounded). When
	// an insertion pushes the store over the bound, least-recently-used
	// entries are evicted; a single page larger than the bound is not
	// retained at all.
	MaxBytes int64
	// DefaultTTL is the freshness lease of a cached page: within it the
	// page is served with no network access. 0 means entries expire
	// immediately — every re-access revalidates with a light connection,
	// the strict §8 behaviour. Forever disables expiry.
	DefaultTTL time.Duration
	// SchemeTTL overrides the TTL per page-scheme: a volatile leaf scheme
	// can expire fast while stable hub pages are kept long.
	SchemeTTL map[string]time.Duration
	// Clock supplies the store's notion of time (nil means a deterministic
	// logical clock advancing one second per reading; servers inject
	// time.Now, tests a manual clock).
	Clock site.Clock
	// Retry configures bounded retries with backoff and the per-attempt
	// deadline for GETs and HEADs (the zero policy is single-attempt).
	Retry site.RetryPolicy
	// Sleeper overrides how retry backoffs and attempt deadlines wait (nil
	// means real timers).
	Sleeper site.Sleeper
	// Workers bounds the concurrent network accesses a single FetchAllCtx
	// batch issues (0 means site.DefaultFetchWorkers); see
	// engine.ExecOptions.Workers for what that bounds per query.
	Workers int
	// MaxInFlight bounds the simultaneous network accesses of the whole
	// store, across batches (0 = no bound beyond each batch's Workers, so
	// concurrent batches add up; see engine.ExecOptions.Workers). A private
	// per-query store sets it so parallel plan branches divide — never
	// multiply — the query's connection limit; a shared store leaves it off,
	// because one query's batch must not queue behind another's.
	MaxInFlight int
	// Meter, when non-nil, is charged the retained HTML bytes of every
	// entry as it is inserted and refunded as it is removed (eviction,
	// invalidation, replacement) — the store's row in a process-wide
	// memory ledger (see internal/overload.Ledger).
	Meter ByteMeter
}

// ByteMeter is the minimal ledger-account surface the store charges;
// satisfied by overload.Account without importing it.
type ByteMeter interface {
	// Add charges (positive) or refunds (negative) retained bytes.
	Add(delta int64)
}

// Stats are the cache-wide counters, accumulated across every query that
// ever used the store.
type Stats struct {
	// Fetches is the number of physical page downloads (GETs that reached
	// the site).
	Fetches int
	// Hits is the number of accesses served from the store within their
	// freshness lease — zero network cost.
	Hits int
	// Revalidations is the number of expired entries a light connection
	// confirmed unchanged (served from the store after one HEAD).
	Revalidations int
	// LightConnections is the number of HEADs issued (revalidations plus
	// the HEADs that discovered a change and triggered a re-GET).
	LightConnections int
	// Retries is the number of retry attempts physical fetches spent.
	Retries int
	// Evictions is the number of entries dropped by the byte bound.
	Evictions int
	// BytesFetched is the total HTML bytes physically downloaded.
	BytesFetched int64
	// Stale is the number of accesses answered from an expired entry
	// because the origin's circuit breaker was open (stale-serving
	// degradation; the guard layer must wrap the server for this to occur).
	Stale int
	// Hedges is the number of extra (hedged) requests the guard issued for
	// this store's fetches; HedgeWins is how many answered first.
	Hedges    int
	HedgeWins int
	// BreakerFastFails is the number of access attempts an open breaker
	// rejected without touching the network.
	BreakerFastFails int
	// Invalidations is the number of entries dropped by push invalidation
	// (a change feed reported the page changed or removed); PushStale is the
	// number of entries force-expired by MarkStale (the page was touched —
	// the next access revalidates with one light connection instead of
	// re-downloading). Neither is an access: they only change how the NEXT
	// access classifies, so the per-query invariant
	// Accesses = Fetches + Hits + Revalidations + Stale is untouched.
	Invalidations int
	PushStale     int
	// WrapPanics is the number of fetched pages whose wrapper panicked
	// (hostile or pathological HTML): the panic is recovered and converted
	// to a per-query fetch error, so one bad page fails one access instead
	// of the process.
	WrapPanics int
	// PeakInFlight is the maximum number of simultaneous network accesses
	// the store's transport has observed — a high-water mark, not a sum.
	PeakInFlight int
}

// Add folds another store's counters into s, for aggregating statistics
// across shards or over sampling intervals (peaks take the maximum). The
// statsexhaustive analyzer holds it to covering every field.
func (s *Stats) Add(o Stats) {
	s.Fetches += o.Fetches
	s.Hits += o.Hits
	s.Revalidations += o.Revalidations
	s.LightConnections += o.LightConnections
	s.Retries += o.Retries
	s.Evictions += o.Evictions
	s.BytesFetched += o.BytesFetched
	s.Stale += o.Stale
	s.Hedges += o.Hedges
	s.HedgeWins += o.HedgeWins
	s.BreakerFastFails += o.BreakerFastFails
	s.Invalidations += o.Invalidations
	s.PushStale += o.PushStale
	s.WrapPanics += o.WrapPanics
	if o.PeakInFlight > s.PeakInFlight {
		s.PeakInFlight = o.PeakInFlight
	}
}

// entry is one cached page.
type entry struct {
	url     string
	scheme  string
	tuple   nested.Tuple
	size    int
	lastMod time.Time // site-reported Last-Modified at fetch time
	expires time.Time // end of the freshness lease; zero = never expires
	elem    *list.Element
}

// flight is one in-progress store fill (miss fetch or revalidation) that
// concurrent queries asking for the same URL wait on.
type flight struct {
	done chan struct{}
	res  access
	err  error
}

// access is the resolved outcome of one page access: the tuple plus which
// network traffic resolving it cost. Sessions turn accesses into per-query
// counters.
type access struct {
	tuple nested.Tuple
	// fetched reports a physical GET resolved this access.
	fetched bool
	// revalidated reports a light connection confirmed the cached copy.
	revalidated bool
	// stale reports the access was answered from an expired entry because
	// the origin's breaker was open — a successful but degraded access.
	stale bool
	// joined reports the access waited on a store fill another query led:
	// its outcome and traffic are that fill's, attributed to both queries.
	joined bool
	// size is the HTML byte size of the page (only when fetched).
	size int
	// net is what resolving the access cost the network beyond the page.
	net site.Traffic
}

// Cache is the page store. It is safe for concurrent use by many queries at
// once.
type Cache struct {
	net   *site.Transport
	clock site.Clock
	cfg   Config

	mu      sync.Mutex
	entries map[string]*entry  // guarded by mu
	lru     *list.List         // front = most recently used; guarded by mu
	bytes   int64              // guarded by mu
	flights map[string]*flight // guarded by mu
	stats   Stats              // guarded by mu
}

// New creates a shared page store over a server and web scheme.
func New(server site.Server, scheme *adm.Scheme, cfg Config) *Cache {
	clk := cfg.Clock
	if clk == nil {
		clk = site.LogicalClock()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = site.DefaultFetchWorkers
	}
	return &Cache{
		net:     site.NewTransport(server, scheme, cfg.Retry, cfg.Sleeper, cfg.MaxInFlight),
		clock:   clk,
		cfg:     cfg,
		entries: make(map[string]*entry),
		lru:     list.New(),
		flights: make(map[string]*flight),
	}
}

// Stats returns a snapshot of the cache-wide counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	st := c.stats
	c.mu.Unlock()
	st.PeakInFlight = c.net.PeakInFlight()
	return st
}

// Len returns the number of cached pages.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the total HTML bytes currently retained.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// RetriesFor returns the retry attempts spent on one URL across all
// queries.
func (c *Cache) RetriesFor(url string) int { return c.net.RetriesFor(url) }

// Invalidate drops the entry for a URL — the targeted-eviction half of push
// consistency: a change feed (or any out-of-band signal) reported the page
// changed or disappeared, so the next access pays one full GET instead of
// waiting out the TTL on a wrong answer. It reports whether an entry was
// dropped and counts Stats.Invalidations.
func (c *Cache) Invalidate(url string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[url]
	if !ok {
		return false
	}
	c.removeLocked(e)
	c.stats.Invalidations++
	return true
}

// MarkStale force-expires the entry for a URL without dropping it: the next
// access revalidates with a §8 light connection and re-downloads only if the
// page really changed. It is the right response to a Touched feed event —
// the modification date moved but the content may not have — where a full
// invalidation would waste a GET. It reports whether an entry was marked and
// counts Stats.PushStale.
func (c *Cache) MarkStale(url string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[url]
	if !ok {
		return false
	}
	// Stamping "now" (not zero: zero means never-expires) ends the lease
	// immediately, even for Forever entries.
	e.expires = c.clock()
	c.stats.PushStale++
	return true
}

// ttlFor returns the freshness lease of a page-scheme.
func (c *Cache) ttlFor(scheme string) time.Duration {
	if d, ok := c.cfg.SchemeTTL[scheme]; ok {
		return d
	}
	return c.cfg.DefaultTTL
}

// leaseLocked stamps the expiry of an entry from its scheme's TTL.
func (c *Cache) leaseLocked(e *entry, now time.Time) {
	ttl := c.ttlFor(e.scheme)
	if ttl == Forever {
		e.expires = time.Time{}
		return
	}
	e.expires = now.Add(ttl)
}

// fresh reports whether an entry is inside its freshness lease at time now.
func fresh(e *entry, now time.Time) bool {
	return e.expires.IsZero() || now.Before(e.expires)
}

// instant is the moment one access classifies its entry at. The clock is
// read on first need and the reading reused, so an access that is checked
// for a hit twice — inline by a session batch, then again before it leads a
// fill — reads the clock exactly as often as a single Access does. A logical
// clock advances per reading, so an extra reading would shift every lease
// after it.
type instant struct {
	t    time.Time
	read bool
}

// at returns the access's instant, reading the clock the first time.
func (c *Cache) at(now *instant) time.Time {
	if !now.read {
		now.t, now.read = c.clock(), true
	}
	return now.t
}

// Access resolves one page access against the store: a fresh entry is a
// hit, an expired entry is revalidated with a light connection (re-GET only
// if the page changed), a miss is fetched. Concurrent accesses of the same
// URL share one store fill and adopt its outcome.
func (c *Cache) Access(ctx context.Context, schemeName, url string) (nested.Tuple, error) {
	res, err := c.access(ctx, schemeName, url, &instant{})
	return res.tuple, err
}

// hit is the network-free half of an access: a fresh entry is served,
// touched in the LRU and counted; anything else reports false and leaves
// the store untouched.
func (c *Cache) hit(url string, now *instant) (access, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hitLocked(url, now)
}

// hitLocked is hit with c.mu held.
func (c *Cache) hitLocked(url string, now *instant) (access, bool) {
	e, ok := c.entries[url]
	if !ok || !fresh(e, c.at(now)) {
		return access{}, false
	}
	c.lru.MoveToFront(e.elem)
	c.stats.Hits++
	return access{tuple: e.tuple}, true
}

func (c *Cache) access(ctx context.Context, schemeName, url string, now *instant) (access, error) {
	c.mu.Lock()
	if res, ok := c.hitLocked(url, now); ok {
		c.mu.Unlock()
		return res, nil
	}
	if fl, ok := c.flights[url]; ok {
		// Another query is filling this URL: wait and adopt its outcome —
		// the access was not free for this query either, so the shared
		// fetch is attributed to every query that needed it (marked joined,
		// so the leader alone accounts for the site's single GET).
		c.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return access{}, ctx.Err()
		}
		res := fl.res
		res.joined = true
		return res, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[url] = fl
	stale := c.entries[url] // non-nil: expired entry to revalidate
	c.mu.Unlock()

	res, err := c.fill(ctx, schemeName, url, stale)

	c.mu.Lock()
	delete(c.flights, url)
	c.mu.Unlock()
	fl.res, fl.err = res, err
	close(fl.done)
	return res, err
}

// fill performs the network side of an access: revalidate an expired entry
// (§8 light connection, re-GET only on change) or fetch a missing page.
// On any error nothing is cached — a degraded fetch never poisons the
// store — and an expired-but-unverifiable entry is kept, to be retried by
// the next access. When the origin's circuit breaker is open and an
// expired copy exists, the copy is served marked stale: the guard cannot
// verify freshness cheaply, and a bounded-staleness answer (the tolerance
// argued for web data in "Maintaining Consistency of Data on the Web")
// beats failing the query.
func (c *Cache) fill(ctx context.Context, schemeName, url string, stale *entry) (access, error) {
	if stale == nil {
		return c.fetch(ctx, schemeName, url)
	}
	meta, n, err := c.net.Head(ctx, url)
	c.noteTraffic(n)
	if err != nil {
		if errors.Is(err, site.ErrNotFound) {
			// The page is gone: drop the entry and report it like a
			// dangling link.
			c.mu.Lock()
			if cur, ok := c.entries[url]; ok && cur == stale {
				c.removeLocked(cur)
			}
			c.mu.Unlock()
			return access{net: n}, err
		}
		if errors.Is(err, site.ErrBreakerOpen) {
			// The breaker fast-failed the revalidation: serve the
			// expired copy, marked stale.
			return c.serveStale(url, stale, n), nil
		}
		// Transient failure: keep the stale entry for a later retry,
		// fail this access.
		return access{net: n}, err
	}
	if !meta.LastModified.After(stale.lastMod) {
		// Unchanged on the site: extend the lease, serve the copy.
		c.mu.Lock()
		now := c.clock()
		c.leaseLocked(stale, now)
		c.lru.MoveToFront(stale.elem)
		c.stats.Revalidations++
		res := access{tuple: stale.tuple, revalidated: true, net: n}
		c.mu.Unlock()
		return res, nil
	}
	// Changed: a full download.
	res, err := c.fetch(ctx, schemeName, url)
	res.net.Add(n)
	if errors.Is(err, site.ErrBreakerOpen) {
		// The page changed but the breaker opened before the re-GET:
		// the old copy is the best available answer — serve it stale.
		return c.serveStale(url, stale, res.net), nil
	}
	return res, err
}

// serveStale answers an access from an expired entry whose origin the
// breaker declared sick. The entry's lease is NOT extended — the next
// access after the breaker closes revalidates for real — but it is touched
// in the LRU so degradation does not evict the very copies serving it.
func (c *Cache) serveStale(url string, stale *entry, n site.Traffic) access {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.entries[url]; ok && cur == stale {
		c.lru.MoveToFront(stale.elem)
	}
	c.stats.Stale++
	return access{tuple: stale.tuple, stale: true, net: n}
}

// fetch downloads, wraps and stores the page at url.
func (c *Cache) fetch(ctx context.Context, schemeName, url string) (access, error) {
	page, n, err := c.net.Get(ctx, schemeName, url)
	c.noteTraffic(n)
	if err != nil {
		// A changed-but-now-unfetchable page must not keep serving its old
		// version as if verified: drop any entry for the URL. A breaker
		// fast-fail says nothing about the page, so the entry survives it
		// (fill may serve it stale). A malformed page (e.g. a chaos-truncated
		// body that outlived the retries) is an error for the asking
		// queries, never a cache entry.
		if !errors.Is(err, site.ErrBreakerOpen) {
			c.drop(url)
		}
		return access{net: n}, err
	}
	c.mu.Lock()
	now := c.clock()
	if old, ok := c.entries[url]; ok {
		c.removeLocked(old) // replacement, not a capacity eviction
	}
	e := &entry{url: url, scheme: schemeName, tuple: page.Tuple, size: page.Size, lastMod: page.LastModified}
	c.leaseLocked(e, now)
	e.elem = c.lru.PushFront(e)
	c.entries[url] = e
	c.bytes += int64(e.size)
	if c.cfg.Meter != nil {
		c.cfg.Meter.Add(int64(e.size))
	}
	c.stats.Fetches++
	c.stats.BytesFetched += int64(e.size)
	c.evictLocked()
	c.mu.Unlock()
	return access{tuple: page.Tuple, fetched: true, size: e.size, net: n}, nil
}

// noteTraffic folds one network operation's traffic into the cache-wide
// stats.
func (c *Cache) noteTraffic(n site.Traffic) {
	if n == (site.Traffic{}) {
		return
	}
	c.mu.Lock()
	c.stats.LightConnections += n.Heads
	c.stats.Retries += n.Retries
	c.stats.Hedges += n.Hedges
	c.stats.HedgeWins += n.HedgeWins
	c.stats.BreakerFastFails += n.FastFails
	c.stats.WrapPanics += n.WrapPanics
	c.mu.Unlock()
}

// drop removes any entry for url.
func (c *Cache) drop(url string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[url]; ok {
		c.removeLocked(e)
	}
}

// removeLocked unlinks an entry; the caller holds c.mu.
func (c *Cache) removeLocked(e *entry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.url)
	c.bytes -= int64(e.size)
	if c.cfg.Meter != nil {
		c.cfg.Meter.Add(-int64(e.size))
	}
}

// evictLocked enforces the byte bound, evicting least-recently-used
// entries; the caller holds c.mu.
func (c *Cache) evictLocked() {
	if c.cfg.MaxBytes <= 0 {
		return
	}
	for c.bytes > c.cfg.MaxBytes && c.lru.Len() > 0 {
		back := c.lru.Back()
		c.removeLocked(back.Value.(*entry))
		c.stats.Evictions++
	}
}
