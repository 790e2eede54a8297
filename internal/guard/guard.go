// Package guard is the per-host resilience layer between the query system
// and a site.Server. The paper's execution model assumes every page access
// eventually answers; on the open web a single sick origin can stall whole
// queries. The guard keeps per-host health (EWMA error rate and latency on
// an injectable clock), drives a closed/open/half-open circuit breaker that
// fast-fails accesses to hosts deemed sick, bounds in-flight requests per
// host with a bulkhead so one slow origin cannot monopolize the global
// fetch pool, and hedges straggler GETs with a second request after a
// deterministic delay (the loser is canceled).
//
// Fast-fails carry site.ErrBreakerOpen, which the retry layers classify as
// non-retryable: callers holding an expired cached copy of the page serve
// it stale instead (pagecache), in the spirit of §8's light connections —
// when the origin cannot confirm freshness cheaply, a bounded-staleness
// answer beats no answer. All accounting (hedges, fast-fails) is surfaced
// separately so the paper's distinct-page-access cost C(E) stays exact.
package guard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"ulixes/internal/site"
)

// ErrBreakerOpen re-exports the sentinel carried by fast-failed accesses,
// so guard callers need not import site just to classify errors.
var ErrBreakerOpen = site.ErrBreakerOpen

// Defaults for Config's zero fields.
const (
	// DefaultAlpha is the EWMA smoothing factor for error rate and latency.
	DefaultAlpha = 0.5
	// DefaultErrorThreshold opens the breaker when the smoothed error rate
	// reaches it (with at least MinSamples observations).
	DefaultErrorThreshold = 0.5
	// DefaultMinSamples is the minimum number of recorded attempts before
	// the breaker may open: one unlucky error must not blacklist a host.
	DefaultMinSamples = 3
	// DefaultOpenFor is how long an open breaker rejects before allowing a
	// half-open probe.
	DefaultOpenFor = 30 * time.Second
	// DefaultCloseAfter is the number of consecutive successful half-open
	// probes required to close the breaker again.
	DefaultCloseAfter = 2
)

// State is a host's circuit-breaker state.
type State int

// Breaker states: Closed admits everything, Open fast-fails everything,
// HalfOpen admits one probe at a time to test recovery.
const (
	Closed State = iota
	Open
	HalfOpen
)

// String renders the state for /healthz and logs.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// HostOf is the default host extractor: everything up to the first slash
// after the scheme separator, i.e. "http://a.example.org/x/y.html" maps to
// "http://a.example.org". Experiments partition a single simulated site
// into several virtual hosts with a custom extractor.
func HostOf(url string) string {
	rest := url
	prefix := ""
	if i := strings.Index(url, "://"); i >= 0 {
		prefix = url[:i+3]
		rest = url[i+3:]
	}
	if j := strings.Index(rest, "/"); j >= 0 {
		rest = rest[:j]
	}
	return prefix + rest
}

// Config tunes the guard. Every zero field gets a sensible default, except
// MaxPerHost and HedgeAfter whose zero values disable the bulkhead and
// hedging respectively.
type Config struct {
	// HostOf maps a URL to the health-tracking key. Nil means the package
	// function HostOf (scheme://host).
	HostOf func(url string) string
	// Clock supplies time for latency EWMAs and breaker open windows;
	// injectable so chaos tests are deterministic (nowallclock lint). Nil
	// means site.LogicalClock.
	Clock site.Clock
	// Sleeper waits out the hedge delay; injectable for tests. Nil means
	// site.StdSleeper.
	Sleeper site.Sleeper
	// Alpha is the EWMA smoothing factor in (0,1]; 0 means DefaultAlpha.
	Alpha float64
	// ErrorThreshold opens the breaker when the smoothed error rate reaches
	// it; 0 means DefaultErrorThreshold.
	ErrorThreshold float64
	// MinSamples is the minimum recorded attempts before the breaker may
	// open; 0 means DefaultMinSamples.
	MinSamples int
	// OpenFor is the rejection window of an open breaker before a half-open
	// probe is allowed; 0 means DefaultOpenFor.
	OpenFor time.Duration
	// CloseAfter is the number of consecutive successful probes that close
	// a half-open breaker; 0 means DefaultCloseAfter.
	CloseAfter int
	// MaxPerHost bounds concurrently in-flight requests per host (the
	// bulkhead); 0 disables the bound.
	MaxPerHost int
	// HedgeAfter issues a second GET for an attempt still unanswered after
	// this delay, canceling the loser; 0 disables hedging. Hedging needs a
	// context-aware inner server (site.ContextServer) to cancel the loser.
	HedgeAfter time.Duration
}

// Outcome reports what the guard did for one access, so callers can keep
// page-access accounting exact: hedges and fast-fails are counted on their
// own, never folded into the paper's C(E). It aliases site.AccessOutcome so
// the counted access paths can consume it without importing this package.
type Outcome = site.AccessOutcome

// HostHealth is one host's snapshot for /healthz and /stats.
type HostHealth struct {
	Host      string  `json:"host"`
	State     string  `json:"state"`
	ErrorRate float64 `json:"errorRate"`
	// LatencyMS is the EWMA latency of successful attempts in milliseconds.
	LatencyMS float64 `json:"latencyMs"`
	Samples   int     `json:"samples"`
	InFlight  int     `json:"inFlight"`
	FastFails int     `json:"fastFails"`
	Hedges    int     `json:"hedges"`
	HedgeWins int     `json:"hedgeWins"`
	Trips     int     `json:"trips"`
}

// hostState is the per-host record; all fields are guarded by Guard.mu
// except sem, which is created once under the lock and then used lock-free.
type hostState struct {
	host string

	state       State     // guarded by Guard.mu
	errRate     float64   // guarded by Guard.mu
	latency     float64   // EWMA of successful-attempt latency, in seconds; guarded by Guard.mu
	samples     int       // guarded by Guard.mu
	openedAt    time.Time // guarded by Guard.mu
	probing     bool      // a half-open probe is in flight; guarded by Guard.mu
	closeStreak int       // guarded by Guard.mu

	inflight  int // guarded by Guard.mu
	fastFails int // guarded by Guard.mu
	hedges    int // guarded by Guard.mu
	hedgeWins int // guarded by Guard.mu
	trips     int // guarded by Guard.mu

	sem chan struct{}
}

// Guard wraps a site.Server with per-host breakers, bulkheads and hedging.
// It implements site.Server, site.ContextServer, site.ContextHeadServer and
// site.OutcomeServer, so it can stand in for the origin anywhere in the
// stack (under any site.Transport: page stores, matview) — wrapping the server
// at construction time is all it takes to guard every downstream layer.
type Guard struct {
	inner site.Server
	cfg   Config

	clock   site.Clock
	sleeper site.Sleeper

	mu    sync.Mutex
	hosts map[string]*hostState // guarded by mu
}

// The guard is a drop-in server for every access path in the stack.
var (
	_ site.Server            = (*Guard)(nil)
	_ site.ContextServer     = (*Guard)(nil)
	_ site.ContextHeadServer = (*Guard)(nil)
	_ site.OutcomeServer     = (*Guard)(nil)
)

// New wraps inner with a guard configured by cfg.
func New(inner site.Server, cfg Config) *Guard {
	if cfg.HostOf == nil {
		cfg.HostOf = HostOf
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = DefaultAlpha
	}
	if cfg.ErrorThreshold <= 0 {
		cfg.ErrorThreshold = DefaultErrorThreshold
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = DefaultMinSamples
	}
	if cfg.OpenFor <= 0 {
		cfg.OpenFor = DefaultOpenFor
	}
	if cfg.CloseAfter <= 0 {
		cfg.CloseAfter = DefaultCloseAfter
	}
	g := &Guard{
		inner:   inner,
		cfg:     cfg,
		clock:   cfg.Clock,
		sleeper: cfg.Sleeper,
		hosts:   make(map[string]*hostState),
	}
	if g.clock == nil {
		g.clock = site.LogicalClock()
	}
	if g.sleeper == nil {
		g.sleeper = site.StdSleeper()
	}
	return g
}

// hostLocked returns (creating if needed) the state for host; g.mu held.
func (g *Guard) hostLocked(host string) *hostState {
	h, ok := g.hosts[host]
	if !ok {
		h = &hostState{host: host}
		if g.cfg.MaxPerHost > 0 {
			h.sem = make(chan struct{}, g.cfg.MaxPerHost)
		}
		g.hosts[host] = h
	}
	return h
}

// admitLocked applies the breaker state machine for one access attempt.
// It returns whether the access may proceed and whether it is the half-open
// probe (which must be released via recordLocked). g.mu held.
func (h *hostState) admitLocked(now time.Time, cfg Config) (allowed, probe bool) {
	switch h.state {
	case Closed:
		return true, false
	case Open:
		if now.Sub(h.openedAt) < cfg.OpenFor {
			return false, false
		}
		h.state = HalfOpen
		h.closeStreak = 0
		h.probing = false
		fallthrough
	case HalfOpen:
		if h.probing {
			return false, false
		}
		h.probing = true
		return true, true
	default:
		return true, false
	}
}

// recordLocked folds one completed attempt into the host's health and
// advances the breaker. Attempts aborted by the caller's own context are
// not recorded: a client hanging up says nothing about the host. g.mu held.
func (h *hostState) recordLocked(failure bool, lat time.Duration, probe bool, now time.Time, cfg Config) {
	if probe {
		h.probing = false
	}
	x := 0.0
	if failure {
		x = 1.0
	}
	if h.samples == 0 {
		h.errRate = x
	} else {
		h.errRate = cfg.Alpha*x + (1-cfg.Alpha)*h.errRate
	}
	if !failure {
		s := lat.Seconds()
		if h.samples == 0 || h.latency == 0 {
			h.latency = s
		} else {
			h.latency = cfg.Alpha*s + (1-cfg.Alpha)*h.latency
		}
	}
	h.samples++

	switch h.state {
	case HalfOpen:
		if failure {
			h.tripLocked(now)
		} else {
			h.closeStreak++
			if h.closeStreak >= cfg.CloseAfter {
				h.state = Closed
				h.errRate = 0
				h.samples = 0
			}
		}
	case Closed:
		if h.samples >= cfg.MinSamples && h.errRate >= cfg.ErrorThreshold {
			h.tripLocked(now)
		}
	}
}

// tripLocked opens the breaker; g.mu held.
func (h *hostState) tripLocked(now time.Time) {
	h.state = Open
	h.openedAt = now
	h.trips++
	h.probing = false
	h.closeStreak = 0
}

// failureFor classifies an attempt's error for health accounting: a missing
// page is a healthy host answering (404 is an answer), and the caller's own
// cancellation says nothing about the host.
func failureFor(ctx context.Context, err error) (failure, record bool) {
	if err == nil {
		return false, true
	}
	if errors.Is(err, site.ErrNotFound) {
		return false, true
	}
	if ctx.Err() != nil {
		return false, false
	}
	return true, true
}

// begin runs admission (breaker + bulkhead) for one access to url. On
// success it returns the host state and whether this is the half-open
// probe; the caller must call finish. A fast-fail returns ErrBreakerOpen
// wrapped with the host.
func (g *Guard) begin(ctx context.Context, url, verb string) (*hostState, bool, error) {
	host := g.cfg.HostOf(url)
	now := g.clock()
	g.mu.Lock()
	h := g.hostLocked(host)
	allowed, probe := h.admitLocked(now, g.cfg)
	if !allowed {
		h.fastFails++
		g.mu.Unlock()
		return h, false, fmt.Errorf("%w: %s %s (host %s)", site.ErrBreakerOpen, verb, url, host)
	}
	g.mu.Unlock()

	if h.sem != nil {
		select {
		case h.sem <- struct{}{}:
		case <-ctx.Done():
			g.mu.Lock()
			if probe {
				h.probing = false
			}
			g.mu.Unlock()
			return h, false, ctx.Err()
		}
	}
	g.mu.Lock()
	h.inflight++
	g.mu.Unlock()
	return h, probe, nil
}

// finish releases the bulkhead slot and records the attempt's outcome.
func (g *Guard) finish(ctx context.Context, h *hostState, probe bool, lat time.Duration, err error) {
	if h.sem != nil {
		<-h.sem
	}
	failure, record := failureFor(ctx, err)
	now := g.clock()
	g.mu.Lock()
	h.inflight--
	if record {
		h.recordLocked(failure, lat, probe, now, g.cfg)
	} else if probe {
		h.probing = false
	}
	g.mu.Unlock()
}

// GetOutcome downloads url through the breaker, bulkhead and (when
// configured) hedging, reporting what the guard did alongside the result.
func (g *Guard) GetOutcome(ctx context.Context, url string) (site.Page, Outcome, error) {
	var out Outcome
	h, probe, err := g.begin(ctx, url, "GET")
	if err != nil {
		if errors.Is(err, site.ErrBreakerOpen) {
			out.FastFailed = true
		}
		return site.Page{}, out, err
	}
	start := g.clock()
	p, err := g.doGet(ctx, url, probe, &out, h)
	g.finish(ctx, h, probe, g.clock().Sub(start), err)
	return p, out, err
}

// doGet performs the guarded download, hedging stragglers when configured.
// Hedging requires a context-aware inner server so the losing request can
// be canceled; a plain Server falls back to a single un-hedged call.
func (g *Guard) doGet(ctx context.Context, url string, probe bool, out *Outcome, h *hostState) (site.Page, error) {
	cs, hasCtx := g.inner.(site.ContextServer)
	if g.cfg.HedgeAfter <= 0 || !hasCtx || probe {
		// Probes are never hedged: a half-open breaker admits exactly one
		// request, and doubling it would defeat the point.
		if hasCtx {
			return cs.GetContext(ctx, url)
		}
		return g.inner.Get(url)
	}

	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		page  site.Page
		err   error
		hedge bool
	}
	results := make(chan result, 2)
	launch := func(hedge bool) {
		go func() {
			p, err := cs.GetContext(hctx, url)
			results <- result{page: p, err: err, hedge: hedge}
		}()
	}
	launch(false)

	timer := make(chan struct{})
	go func() {
		if g.sleeper.Sleep(hctx, g.cfg.HedgeAfter) == nil {
			close(timer)
		}
	}()

	hedged := false
	pending := 1
	var firstErr error
	for {
		select {
		case r := <-results:
			pending--
			if r.err == nil {
				if r.hedge {
					g.mu.Lock()
					h.hedgeWins++
					g.mu.Unlock()
					out.HedgeWon = true
				}
				return r.page, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if !hedged || pending == 0 {
				// Either the primary failed before the hedge fired (fail
				// fast — the retry layer above owns backoff), or both
				// requests have failed.
				return site.Page{}, firstErr
			}
			// One of two failed; wait for the survivor.
		case <-timer:
			timer = nil
			hedged = true
			pending++
			g.mu.Lock()
			h.hedges++
			g.mu.Unlock()
			out.Hedges++
			launch(true)
		case <-ctx.Done():
			return site.Page{}, ctx.Err()
		}
	}
}

// HeadOutcome opens a light connection through the breaker and bulkhead.
// HEADs are never hedged: a light connection is already the cheap path.
func (g *Guard) HeadOutcome(ctx context.Context, url string) (site.Meta, Outcome, error) {
	var out Outcome
	h, probe, err := g.begin(ctx, url, "HEAD")
	if err != nil {
		if errors.Is(err, site.ErrBreakerOpen) {
			out.FastFailed = true
		}
		return site.Meta{}, out, err
	}
	start := g.clock()
	var m site.Meta
	if hs, ok := g.inner.(site.ContextHeadServer); ok {
		m, err = hs.HeadContext(ctx, url)
	} else {
		m, err = g.inner.Head(url)
	}
	g.finish(ctx, h, probe, g.clock().Sub(start), err)
	return m, out, err
}

// GetContext implements site.ContextServer.
func (g *Guard) GetContext(ctx context.Context, url string) (site.Page, error) {
	p, _, err := g.GetOutcome(ctx, url)
	return p, err
}

// HeadContext implements site.ContextHeadServer.
func (g *Guard) HeadContext(ctx context.Context, url string) (site.Meta, error) {
	m, _, err := g.HeadOutcome(ctx, url)
	return m, err
}

// Get implements site.Server for context-free callers (matview's live
// fallback and compatibility paths).
func (g *Guard) Get(url string) (site.Page, error) {
	return g.GetContext(context.Background(), url) //lint:allow noctxbg context-free site.Server compatibility
}

// Head implements site.Server.
func (g *Guard) Head(url string) (site.Meta, error) {
	return g.HeadContext(context.Background(), url) //lint:allow noctxbg context-free site.Server compatibility
}

// StateOf returns the breaker state of the host owning url's health record.
// Hosts never seen are Closed.
func (g *Guard) StateOf(host string) State {
	g.mu.Lock()
	defer g.mu.Unlock()
	h, ok := g.hosts[host]
	if !ok {
		return Closed
	}
	return g.effectiveStateLocked(h)
}

// effectiveStateLocked reports Open breakers whose window has lapsed as
// HalfOpen, so snapshots match what the next access would see.
func (g *Guard) effectiveStateLocked(h *hostState) State {
	if h.state == Open && g.clock().Sub(h.openedAt) >= g.cfg.OpenFor {
		return HalfOpen
	}
	return h.state
}

// AnyOpen reports whether any host's breaker is currently open — the
// admission-control signal ulixesd uses to shed low-priority queries.
func (g *Guard) AnyOpen() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, h := range g.hosts {
		if g.effectiveStateLocked(h) == Open {
			return true
		}
	}
	return false
}

// Snapshot returns every known host's health, sorted by host, for /healthz
// and /stats.
func (g *Guard) Snapshot() []HostHealth {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]HostHealth, 0, len(g.hosts))
	for _, h := range g.hosts {
		out = append(out, HostHealth{
			Host:      h.host,
			State:     g.effectiveStateLocked(h).String(),
			ErrorRate: h.errRate,
			LatencyMS: h.latency * 1000,
			Samples:   h.samples,
			InFlight:  h.inflight,
			FastFails: h.fastFails,
			Hedges:    h.hedges,
			HedgeWins: h.hedgeWins,
			Trips:     h.trips,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}
