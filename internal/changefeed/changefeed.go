// Package changefeed upgrades the paper's §8 lazy view maintenance to push:
// a Monitor detects page mutations on a site.Server and emits a
// deterministic feed of (url, ChangeKind, Last-Modified) events to
// registered sinks — the cache invalidates exactly the affected entry, the
// materialized store re-wraps exactly the changed page, and standing queries
// re-answer exactly when their footprint is touched, instead of every
// consumer rediscovering the change behind its own TTL ("Maintaining
// Consistency of Data on the Web": push where the workload earns it, pull
// everywhere else).
//
// Two detection modes compose on one Monitor:
//
//   - hook mode (AttachMemSite): a co-located MemSite reports every mutation
//     through its OnMutate hook, for free — no network traffic at all. The
//     Last-Modified date comes from the site-side PeekMeta instrumentation.
//   - poll mode (Watch + Sweep/Run): for sites that only expose GET/HEAD,
//     the monitor sweeps its watched URLs with light connections on the
//     injectable clock. Each URL carries an adaptive cadence — halved toward
//     MinInterval when a check finds a change, doubled toward MaxInterval
//     when it does not — so hot pages are probed often and cold ones rarely.
//     A per-sweep HEAD budget bounds the traffic burst; due URLs beyond it
//     are deferred to the next sweep. Checks fast-failed by an open circuit
//     breaker (site.ErrBreakerOpen, surfaced through internal/guard) are
//     skipped without counting a light connection and retried next sweep.
//
// Events are deterministic: sweeps visit due URLs in sorted order, sinks run
// synchronously in registration order, and the only clock read is the
// injected one (the nowallclock lint enforces it).
package changefeed

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"ulixes/internal/site"
)

// ChangeKind aliases the site-level mutation classification, so sinks can be
// written against this package alone.
type ChangeKind = site.ChangeKind

// Event is one observed page mutation.
type Event struct {
	// URL is the mutated page.
	URL string
	// Scheme is the page-scheme of the page, when known ("" otherwise —
	// consumers must treat an unknown scheme conservatively).
	Scheme string
	// Kind classifies the mutation.
	Kind ChangeKind
	// LastModified is the page's new modification date (zero for removals).
	LastModified time.Time
}

// Sink consumes feed events. OnChange is called synchronously from the
// mutation hook or the sweeping goroutine; slow sinks delay the feed, not
// the site.
type Sink interface {
	OnChange(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// OnChange implements Sink.
func (f SinkFunc) OnChange(e Event) { f(e) }

// SweepSink is notified after every poll sweep, with the pass's report —
// the signal consumers use to advance freshness horizons.
type SweepSink interface {
	OnSweep(SweepReport)
}

// SweepFunc adapts a function to the SweepSink interface.
type SweepFunc func(SweepReport)

// OnSweep implements SweepSink.
func (f SweepFunc) OnSweep(r SweepReport) { f(r) }

// SweepReport summarizes one poll sweep.
type SweepReport struct {
	// Checked is how many watched URLs were verified this sweep.
	Checked int
	// Changed is how many of them had changed (events emitted).
	Changed int
	// Removed is how many were found gone from the site.
	Removed int
	// Deferred is how many due URLs the HEAD budget pushed to the next sweep.
	Deferred int
	// BreakerSkips is how many checks an open circuit breaker fast-failed.
	BreakerSkips int
	// Errors is how many checks failed for other reasons.
	Errors int
	// Clean reports that every due URL was actually verified: no error, no
	// breaker skip, no budget deferral. Only clean sweeps may advance a
	// consumer's freshness horizon.
	Clean bool
	// OldestVerified is the oldest per-URL verification instant across ALL
	// watched URLs after the sweep — the bound through which the whole
	// watched set is known consistent. Zero while any URL has never been
	// checked.
	OldestVerified time.Time
}

// DefaultMinInterval is the adaptive per-URL check cadence's lower bound
// when Config.MinInterval is zero.
const DefaultMinInterval = 10 * time.Second

// MaxInterval is the cadence's upper bound, unless MinInterval is above it.
const MaxInterval = 10 * time.Minute

// Config tunes a Monitor.
type Config struct {
	// Clock supplies the monitor's notion of time (nil means a deterministic
	// logical clock advancing one second per reading; servers inject
	// time.Now).
	Clock site.Clock
	// Budget caps the light connections one Sweep may issue (0 = unlimited).
	// Due URLs beyond the budget are deferred, most-overdue first.
	Budget int
	// MinInterval is the adaptive per-URL check cadence's lower bound (zero
	// means DefaultMinInterval).
	MinInterval time.Duration
}

// Counters tallies the monitor's traffic and feed volume.
type Counters struct {
	// Heads is the light connections sweeps issued (hook-mode events cost
	// none).
	Heads int `json:"heads,omitempty"`
	// Sweeps is the number of poll passes run; CleanSweeps how many verified
	// every due URL.
	Sweeps      int `json:"sweeps,omitempty"`
	CleanSweeps int `json:"cleanSweeps,omitempty"`
	// Events is the total events emitted to sinks, split by kind below.
	Events    int `json:"events"`
	Updates   int `json:"updates,omitempty"`
	Additions int `json:"additions,omitempty"`
	Removals  int `json:"removals,omitempty"`
	Touches   int `json:"touches,omitempty"`
	// Deferred is the due checks pushed to a later sweep by the budget.
	Deferred int `json:"deferred,omitempty"`
	// BreakerSkips is the checks fast-failed by an open circuit breaker;
	// Errors the checks failed for other reasons.
	BreakerSkips int `json:"breakerSkips,omitempty"`
	Errors       int `json:"errors,omitempty"`
	// Watched is the number of URLs under poll-mode watch.
	Watched int `json:"watched,omitempty"`
}

// watchState is the poll-mode bookkeeping for one URL.
type watchState struct {
	scheme      string
	lastMod     time.Time     // last observed Last-Modified
	interval    time.Duration // current adaptive cadence
	nextDue     time.Time     // next check no earlier than this
	lastChecked time.Time     // zero until first verification
}

// Monitor watches a server for page mutations and fans events out to sinks.
// It is safe for concurrent use.
type Monitor struct {
	net *site.Transport
	cfg Config

	mu         sync.Mutex
	sinks      []Sink                 // guarded by mu
	sweepSinks []SweepSink            // guarded by mu
	watched    map[string]*watchState // guarded by mu
	schemes    map[string]string      // url → last known page-scheme; guarded by mu
	hooked     bool                   // AttachMemSite was called; guarded by mu
	sweeping   bool                   // a Sweep is in flight; guarded by mu
	counters   Counters               // guarded by mu
}

// New creates a monitor over a server. Poll-mode checks go through the given
// server — wrap it in a guard to make sweeps breaker-aware — reached through
// a site.Transport with the zero policy, so every check is exactly one light
// connection.
func New(server site.Server, cfg Config) *Monitor {
	if cfg.Clock == nil {
		cfg.Clock = site.LogicalClock()
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = DefaultMinInterval
	}
	return &Monitor{
		net:     site.NewTransport(server, nil, site.RetryPolicy{}, nil, 0),
		cfg:     cfg,
		watched: make(map[string]*watchState),
		schemes: make(map[string]string),
	}
}

// Subscribe registers a sink. Sinks are called synchronously, in
// registration order, for every event.
func (m *Monitor) Subscribe(s Sink) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sinks = append(m.sinks, s)
}

// SubscribeSweep registers a sweep-report sink.
func (m *Monitor) SubscribeSweep(s SweepSink) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepSinks = append(m.sweepSinks, s)
}

// Counters returns a snapshot of the monitor's counters.
func (m *Monitor) Counters() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counters
	c.Watched = len(m.watched)
	return c
}

func (m *Monitor) now() time.Time { return m.cfg.Clock() }

// AttachMemSite taps the site's mutation hook: every site-side mutation
// becomes one feed event, with the new Last-Modified date read back through
// the site's PeekMeta instrumentation — zero network traffic. Remote sites
// without hook access use Watch + Sweep instead.
func (m *Monitor) AttachMemSite(ms *site.MemSite) {
	m.mu.Lock()
	m.hooked = true
	m.mu.Unlock()
	ms.OnMutate(func(url string, kind site.ChangeKind) {
		ev := Event{URL: url, Kind: kind}
		if sch, ok := ms.SchemeOf(url); ok {
			ev.Scheme = sch
		}
		if meta, ok := ms.PeekMeta(url); ok {
			ev.LastModified = meta.LastModified
		}
		if ev.Scheme == "" {
			// A removed page no longer reports its scheme; fall back to what
			// the feed learned about the URL earlier.
			m.mu.Lock()
			ev.Scheme = m.schemes[url]
			m.mu.Unlock()
		}
		m.emit(ev)
	})
}

// Watch registers a URL for poll-mode sweeps. lastMod is the page's
// Last-Modified as currently held by the consumer (zero forces the first
// check to report a change); the first check comes due immediately.
func (m *Monitor) Watch(url, scheme string, lastMod time.Time) {
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.watched[url]; ok {
		return
	}
	m.watched[url] = &watchState{
		scheme:   scheme,
		lastMod:  lastMod,
		interval: m.cfg.MinInterval,
		nextDue:  now,
	}
	if scheme != "" {
		m.schemes[url] = scheme
	}
}

// Unwatch drops a URL from poll-mode sweeps.
func (m *Monitor) Unwatch(url string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.watched, url)
}

// WatchMemSite registers every URL the site currently serves, seeding each
// watch with the page's current modification date (via PeekMeta — watching
// is instrumentation, not traffic). It is the standard poll-mode seeding for
// experiments and the daemon.
func (m *Monitor) WatchMemSite(ms *site.MemSite) {
	for _, url := range ms.URLs() {
		scheme, _ := ms.SchemeOf(url)
		var lastMod time.Time
		if meta, ok := ms.PeekMeta(url); ok {
			lastMod = meta.LastModified
		}
		m.Watch(url, scheme, lastMod)
	}
}

// VerifiedBound returns the instant through which everything the monitor
// covers is known verified against the live site, and whether such a bound
// exists. In hook mode every mutation is pushed as it happens, so the bound
// is simply "now"; in poll mode it is the oldest per-URL verification
// instant (no bound until every watched URL has been checked at least once).
// Consumers advance freshness horizons to this bound.
func (m *Monitor) VerifiedBound() (time.Time, bool) {
	m.mu.Lock()
	hooked := m.hooked
	var oldest time.Time
	ok := len(m.watched) > 0 || hooked
	for _, w := range m.watched {
		if w.lastChecked.IsZero() {
			ok = false
			break
		}
		if oldest.IsZero() || w.lastChecked.Before(oldest) {
			oldest = w.lastChecked
		}
	}
	m.mu.Unlock()
	if !ok {
		return time.Time{}, false
	}
	if hooked {
		return m.now(), true
	}
	return oldest, true
}

// emit fans one event out to the sinks, synchronously and in registration
// order. Counters are updated first so a sink reading them sees the event
// included.
func (m *Monitor) emit(ev Event) {
	m.mu.Lock()
	m.counters.Events++
	switch ev.Kind {
	case site.ChangeAdded:
		m.counters.Additions++
	case site.ChangeUpdated:
		m.counters.Updates++
	case site.ChangeRemoved:
		m.counters.Removals++
	case site.ChangeTouched:
		m.counters.Touches++
	}
	if ev.Scheme != "" {
		m.schemes[ev.URL] = ev.Scheme
	}
	sinks := append([]Sink(nil), m.sinks...)
	m.mu.Unlock()
	for _, s := range sinks {
		s.OnChange(ev)
	}
}

// Sweep runs one poll pass at the injectable clock's current instant: every
// watched URL whose cadence has come due is checked with a light connection
// (up to Budget, most-overdue first, ties broken by URL so the pass is
// deterministic), changed pages emit events, and each URL's cadence adapts —
// halved after a change, doubled after a no-change check. The report says
// whether the pass was clean and how far the verified bound reaches.
func (m *Monitor) Sweep(ctx context.Context) SweepReport {
	m.mu.Lock()
	if m.sweeping {
		// One sweep at a time; an overlapping call reports an empty,
		// non-clean pass rather than double-checking URLs.
		m.mu.Unlock()
		return SweepReport{}
	}
	m.sweeping = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.sweeping = false
		m.mu.Unlock()
	}()

	now := m.now()
	type dueItem struct {
		url string
		ws  watchState
	}
	m.mu.Lock()
	due := make([]dueItem, 0, len(m.watched))
	for url, ws := range m.watched {
		if !ws.nextDue.After(now) {
			due = append(due, dueItem{url, *ws})
		}
	}
	m.mu.Unlock()
	sort.Slice(due, func(i, j int) bool {
		if !due[i].ws.nextDue.Equal(due[j].ws.nextDue) {
			return due[i].ws.nextDue.Before(due[j].ws.nextDue)
		}
		return due[i].url < due[j].url
	})

	var rep SweepReport
	checked := 0
	for _, d := range due {
		if m.cfg.Budget > 0 && checked >= m.cfg.Budget {
			rep.Deferred = len(due) - checked
			break
		}
		if ctx != nil && ctx.Err() != nil {
			rep.Deferred = len(due) - checked
			break
		}
		checked++
		meta, tr, err := m.net.Head(ctx, d.url)
		switch {
		case err == nil:
			m.mu.Lock()
			m.counters.Heads += tr.Heads
			ws, ok := m.watched[d.url]
			if !ok {
				m.mu.Unlock()
				continue
			}
			changed := meta.LastModified.After(ws.lastMod)
			if changed {
				ws.interval = ws.interval / 2
				if ws.interval < m.cfg.MinInterval {
					ws.interval = m.cfg.MinInterval
				}
			} else {
				ws.interval = min(ws.interval*2, max(MaxInterval, m.cfg.MinInterval))
			}
			ws.lastMod = meta.LastModified
			ws.lastChecked = now
			ws.nextDue = now.Add(ws.interval)
			scheme := ws.scheme
			m.mu.Unlock()
			rep.Checked++
			if changed {
				rep.Changed++
				m.emit(Event{URL: d.url, Scheme: scheme, Kind: site.ChangeUpdated, LastModified: meta.LastModified})
			}
		case errors.Is(err, site.ErrNotFound):
			// Confirmed gone: emit the removal and stop watching. A 404 is a
			// real light connection.
			m.mu.Lock()
			m.counters.Heads += tr.Heads
			scheme := ""
			if ws, ok := m.watched[d.url]; ok {
				scheme = ws.scheme
			}
			delete(m.watched, d.url)
			m.mu.Unlock()
			rep.Checked++
			rep.Removed++
			m.emit(Event{URL: d.url, Scheme: scheme, Kind: site.ChangeRemoved})
		case errors.Is(err, site.ErrBreakerOpen):
			// Fast-failed without touching the network: no light connection,
			// retry next sweep at the same cadence.
			rep.BreakerSkips++
			m.deferCheck(d.url, now)
		default:
			rep.Errors++
			m.deferCheck(d.url, now)
		}
	}
	rep.Clean = rep.Deferred == 0 && rep.BreakerSkips == 0 && rep.Errors == 0

	m.mu.Lock()
	oldest := time.Time{}
	complete := true
	for _, ws := range m.watched {
		if ws.lastChecked.IsZero() {
			complete = false
			break
		}
		if oldest.IsZero() || ws.lastChecked.Before(oldest) {
			oldest = ws.lastChecked
		}
	}
	if complete {
		rep.OldestVerified = oldest
	}
	m.counters.Sweeps++
	if rep.Clean {
		m.counters.CleanSweeps++
	}
	m.counters.Deferred += rep.Deferred
	m.counters.BreakerSkips += rep.BreakerSkips
	m.counters.Errors += rep.Errors
	sweepSinks := append([]SweepSink(nil), m.sweepSinks...)
	m.mu.Unlock()
	for _, s := range sweepSinks {
		s.OnSweep(rep)
	}
	return rep
}

// deferCheck pushes an unverified URL's next check one interval out without
// adapting the cadence.
func (m *Monitor) deferCheck(url string, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ws, ok := m.watched[url]; ok {
		ws.nextDue = now.Add(ws.interval)
	}
}

// Run sweeps every `every` on the given sleeper until the context is
// cancelled, returning the context's error. The daemon runs it in a
// background goroutine; tests drive Sweep directly.
func (m *Monitor) Run(ctx context.Context, every time.Duration, slp site.Sleeper) error {
	if slp == nil {
		slp = site.StdSleeper()
	}
	for {
		if err := slp.Sleep(ctx, every); err != nil {
			return err
		}
		m.Sweep(ctx)
	}
}
