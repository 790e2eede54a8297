// Command ulixesd is a long-running query server: many concurrent clients
// share one site, one optimizer and one cross-query page store, so pages
// downloaded for one query answer the next one for free (or for the price
// of a §8 light connection once their TTL expires).
//
// Usage:
//
//	ulixesd [-addr 127.0.0.1:8099] [-site university|bibliography]
//	        [-courses 50] [-profs 20] [-depts 3] [-authors 500]
//	        [-ttl 30s|forever] [-cache-bytes N] [-page-budget N]
//	        [-retries N] [-degraded]
//	        [-max-queries N] [-workers N] [-drain-timeout 10s]
//	        [-queue N] [-queue-wait 2s] [-capacity-pages N]
//	        [-deadline 0] [-deadline-max 0]
//	        [-guard] [-breaker-threshold 0.5] [-breaker-open-for 30s]
//	        [-host-fetches N] [-hedge-after 0]
//	        [-plan-cache] [-plan-cache-entries N]
//	        [-views-auto] [-views-budget N] [-views-horizon 5m]
//	        [-views-stale] [-views-every 50]
//	        [-feed off|hook|poll] [-feed-budget N] [-feed-interval 10s]
//	        [-watch-max N] [-ring-bytes N] [-watch-write-timeout 10s]
//	        [-mutate-seed N]
//
//	POST /query      query text in the body (or GET /query?q=…)
//	GET  /healthz    liveness (503 while draining; reports open breakers)
//	GET  /stats      shared-store, admission and per-host guard counters
//	POST /subscribe  register a standing query (body or ?q=…); returns its id
//	DELETE /subscribe?id=N   cancel a standing query
//	GET  /watch?id=N&after=M deltas with seq>M: long-poll JSON, SSE with &sse=1
//	POST /mutate?n=K apply K deterministic site mutations (university + -feed)
//
// /stats serializes each subsystem's own counter struct under the wire
// names its JSON tags declare: pagecache.Stats at top level next to the
// server's admission and memory ledger, matview.Counters, changefeed.Counters
// and standing.Counters under matview, feed and standing, and one
// guard.HostHealth per host under hosts. queryTotals sums every served
// query's stats in the same wire type as a /query response's stats, and
// keeps counters only: the per-URL lists stay in each response.
//
// Admission control is cost-aware and bounded: at most -max-queries queries
// run at once, up to -queue more wait FIFO, and a waiter whose sojourn
// exceeds -queue-wait is dropped (429, Retry-After) even if a slot frees —
// so queueing delay is bounded by construction, not by luck. With -queue 0
// (the default) excess requests are rejected immediately with 429, the
// historical behavior. With -capacity-pages, queries whose plan-cache page
// estimate exceeds the remaining capacity are refused at the door (429, or
// 422 when the estimate exceeds total capacity and could never fit) before
// they cost anything. Per-query deadline budgets bound latency the same
// way: a client's ?deadline= (clamped to -deadline-max) or the -deadline
// default turns into a context timeout plus degraded execution, so an
// expired query returns the partial answer it has (deadlineExpired in the
// response) instead of holding a slot. On SIGINT/SIGTERM the server stops
// admitting (503) and drains in-flight queries up to -drain-timeout.
//
// Memory is governed by one shared byte ledger: the page store, the
// standing-query delta rings (bounded by -ring-bytes, oldest dropped
// first), materialized view extents and /watch SSE buffers all report into
// it, and /stats exposes the per-subsystem bytes and peaks (memLedger).
// Slow /watch clients are disconnected after -watch-write-timeout per
// write rather than pinning buffers forever.
//
// With -guard (the default) every fetch runs through a per-host site-health
// guard: an EWMA-driven circuit breaker fast-fails requests to sick hosts
// (queries degrade to the store's expired copies instead of failing), a
// per-host bulkhead bounds in-flight fetches (-host-fetches), and slow GETs
// are hedged after -hedge-after (0 disables hedging). While any breaker is
// open, low-priority queries (header X-Ulixes-Priority: low or
// ?priority=low) are shed at admission with 503 so capacity goes to
// must-run work. Request deadlines and disconnects propagate end to end:
// the HTTP request context cancels the query's page fetches.
//
// With -plan-cache (the default) queries repeating an already-seen shape —
// the same query with different constants — skip Algorithm 1 entirely and
// reuse the cached typechecked, rewritten, cost-selected plan, specialized
// with the actual constants. Plans are cached per statistics value, which
// the server collects once at start-up and never edits; at most
// -plan-cache-entries shapes are kept, least recently used evicted first.
// Per-query responses report planCached; /stats reports the hit/miss/entry
// counters.
//
// With -views-auto every query's canonicalized shape and measured cost is
// recorded, and every -views-every served queries a benefit-per-byte
// selector re-decides which view extents to materialize under -views-budget
// bytes. Queries a materialized view answers soundly (its binding pattern
// implied by the query's constants, within -views-horizon) skip navigation
// entirely and report fromView; anything else falls back to the live plan.
// /stats reports viewHits/viewMisses/viewBytes/selectorRuns and the backing
// store's maintenance counters.
//
// With -feed the server runs a push-based consistency pipeline (see
// internal/changefeed): page mutations become feed events that invalidate
// exactly the affected store entries, incrementally refresh exactly the
// changed materialized-view rows (with -views-auto), and re-answer exactly
// the standing queries whose footprint was touched. "hook" taps the
// in-process site's mutation hook (zero network traffic); "poll" sweeps
// every page with adaptive light connections every -feed-interval, at most
// -feed-budget HEADs per sweep. Standing queries are registered on
// /subscribe (at most -watch-max at once) and consumed on /watch as
// long-poll JSON or an SSE stream; /mutate applies a seeded, deterministic
// mutation workload to the university site so the pipeline can be exercised
// end to end. /stats reports the feed and standing-query ledgers.
//
// Every flag is one field of config, which parseFlags fills and checks
// before any work is done; assemble builds the whole server from it, and
// the package's tests, the end-to-end smoke tests included, build theirs
// the same way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ulixes"
	"ulixes/internal/changefeed"
	"ulixes/internal/cost"
	"ulixes/internal/guard"
	"ulixes/internal/overload"
	"ulixes/internal/pagecache"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
	"ulixes/internal/standing"
	"ulixes/internal/view"
	"ulixes/internal/vselect"
)

// config holds one field per flag, and the test-only seam no flag sets.
type config struct {
	addr                  string
	site                  string
	courses, profs, depts int
	authors               int
	workers               int
	maxQueries, queueLen  int
	queueWait             time.Duration
	capacityPages         float64
	deadline, deadlineMax time.Duration
	pageBudget            int
	ttl                   string
	cacheBytes            int64
	retries               int
	degraded              bool
	drainTimeout          time.Duration
	guard                 bool
	breakerThreshold      float64
	breakerOpenFor        time.Duration
	hostFetches           int
	hedgeAfter            time.Duration
	planCache             bool
	planCacheEntries      int
	viewsAuto             bool
	viewsBudget           int64
	viewsHorizon          time.Duration
	viewsStale            bool
	viewsEvery            int
	feed                  string
	feedBudget            int
	feedInterval          time.Duration
	watchMax, ringBytes   int
	watchWriteTimeout     time.Duration
	mutateSeed            int64

	seam seam
}

// seam is what tests substitute under the server; its zero value is what
// the binary runs.
type seam struct {
	// wrap, when non-nil, puts a server between the site and everything
	// that fetches from it (the guard, the page store, the statistics
	// crawl and the change feed's sweeps).
	wrap func(*site.MemSite) site.Server
	// clock, when non-nil, drives the guard's breakers and the page
	// store's TTLs instead of their logical clocks.
	clock site.Clock
	// sleeper, when non-nil, waits out the page store's retry backoff.
	sleeper site.Sleeper
}

// parseFlags parses ulixesd's command line into a config. It rejects a bad
// -site, -ttl or -feed before anything is built, so a typo does not cost a
// site generation and a statistics crawl first.
func parseFlags(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("ulixesd", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", "127.0.0.1:8099", "listen address")
	fs.StringVar(&c.site, "site", "university", "site to serve: university or bibliography")
	fs.IntVar(&c.courses, "courses", 50, "university: number of courses")
	fs.IntVar(&c.profs, "profs", 20, "university: number of professors")
	fs.IntVar(&c.depts, "depts", 3, "university: number of departments")
	fs.IntVar(&c.authors, "authors", 500, "bibliography: number of authors")
	fs.IntVar(&c.workers, "workers", 0, "query parallelism: up to N follow tasks of N page accesses each in flight (0 = default; see engine.ExecOptions.Workers)")
	fs.IntVar(&c.maxQueries, "max-queries", 8, "max in-flight queries; excess requests queue or get 429")
	fs.IntVar(&c.queueLen, "queue", 0, "admission queue length beyond -max-queries (0 = reject immediately)")
	fs.DurationVar(&c.queueWait, "queue-wait", 2*time.Second, "max queue sojourn; overdue waiters are dropped with 429")
	fs.Float64Var(&c.capacityPages, "capacity-pages", 0, "estimated-page capacity across in-flight queries (0 = unlimited)")
	fs.DurationVar(&c.deadline, "deadline", 0, "default per-query deadline when the client sends none (0 = none)")
	fs.DurationVar(&c.deadlineMax, "deadline-max", 0, "hard ceiling on any per-query deadline (0 = no ceiling)")
	fs.IntVar(&c.pageBudget, "page-budget", 0, "max distinct pages one query may access (0 = unlimited)")
	fs.StringVar(&c.ttl, "ttl", "forever", "page TTL: a duration, 0 (revalidate every re-access) or forever")
	fs.Int64Var(&c.cacheBytes, "cache-bytes", 0, "shared store byte bound (0 = unbounded)")
	fs.IntVar(&c.retries, "retries", 0, "retries per page fetch in the shared store")
	fs.BoolVar(&c.degraded, "degraded", false, "partial answers when pages are unreachable")
	fs.DurationVar(&c.drainTimeout, "drain-timeout", 10*time.Second, "graceful-drain bound on shutdown")
	fs.BoolVar(&c.guard, "guard", true, "run fetches through the per-host site-health guard")
	fs.Float64Var(&c.breakerThreshold, "breaker-threshold", guard.DefaultErrorThreshold, "EWMA error rate that opens a host's circuit breaker")
	fs.DurationVar(&c.breakerOpenFor, "breaker-open-for", guard.DefaultOpenFor, "how long an open breaker fast-fails before probing")
	fs.IntVar(&c.hostFetches, "host-fetches", 0, "per-host bulkhead: max in-flight fetches per host (0 = unbounded)")
	fs.DurationVar(&c.hedgeAfter, "hedge-after", 0, "hedge straggler GETs after this delay (0 = no hedging)")
	fs.BoolVar(&c.planCache, "plan-cache", true, "cache prepared plans by query shape (constants parameterized out)")
	fs.IntVar(&c.planCacheEntries, "plan-cache-entries", 0, "max cached plan shapes (0 = default)")
	fs.BoolVar(&c.viewsAuto, "views-auto", false, "record the workload and materialize the most beneficial views automatically")
	fs.Int64Var(&c.viewsBudget, "views-budget", 0, "storage budget in bytes for materialized view extents (0 = unlimited)")
	fs.DurationVar(&c.viewsHorizon, "views-horizon", 0, "freshness horizon: views older than this stop answering (0 = never expire)")
	fs.BoolVar(&c.viewsStale, "views-stale", false, "serve views past the freshness horizon instead of navigating live")
	fs.IntVar(&c.viewsEvery, "views-every", 50, "re-run view selection every N served queries")
	fs.StringVar(&c.feed, "feed", "off", "push feed: off, hook (site mutation hook) or poll (adaptive HEAD sweeps)")
	fs.IntVar(&c.feedBudget, "feed-budget", 0, "poll feed: max light connections per sweep (0 = unlimited)")
	fs.DurationVar(&c.feedInterval, "feed-interval", 10*time.Second, "poll feed: sweep period and minimum per-URL check cadence")
	fs.IntVar(&c.watchMax, "watch-max", standing.DefaultMaxSubs, "max concurrent standing-query subscriptions")
	fs.IntVar(&c.ringBytes, "ring-bytes", 0, "per-subscription delta-ring byte bound; oldest dropped first (0 = count bound only)")
	fs.DurationVar(&c.watchWriteTimeout, "watch-write-timeout", 10*time.Second, "per-write /watch deadline; slow clients are disconnected (0 = none)")
	fs.Int64Var(&c.mutateSeed, "mutate-seed", 1, "seed for the /mutate mutation workload")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if c.site != "university" && c.site != "bibliography" {
		return c, fmt.Errorf("unknown site %q (university or bibliography)", c.site)
	}
	if _, err := parseTTL(c.ttl); err != nil {
		return c, err
	}
	if c.feed != "off" && c.feed != "hook" && c.feed != "poll" {
		return c, fmt.Errorf("bad -feed %q (off, hook or poll)", c.feed)
	}
	return c, nil
}

// assemble builds the server a config describes, in this order: the site,
// the guard, the byte ledger, the page store, the system (whose statistics
// crawl runs here), the plan cache, admission, view answering, and the
// change feed with its sinks, its standing-query registry and its mutator.
// With -feed poll it starts the sweeper, which stop ends.
func assemble(cfg config) (*server, error) {
	ttl, err := parseTTL(cfg.ttl)
	if err != nil {
		return nil, err
	}
	ms, ws, views, univ, err := buildSite(cfg.site, cfg.courses, cfg.profs, cfg.depts, cfg.authors)
	if err != nil {
		return nil, err
	}
	var upstream site.Server = ms
	if cfg.seam.wrap != nil {
		upstream = cfg.seam.wrap(ms)
	}
	// The guard composes transparently: it is simply the server the store
	// and the engine fetch through, so breakers, bulkheads and hedges apply
	// to every page access without further wiring.
	var g *guard.Guard
	if cfg.guard {
		g = guard.New(upstream, guard.Config{
			Clock:          cfg.seam.clock,
			ErrorThreshold: cfg.breakerThreshold,
			OpenFor:        cfg.breakerOpenFor,
			MaxPerHost:     cfg.hostFetches,
			HedgeAfter:     cfg.hedgeAfter,
		})
		upstream = g
	}
	clock := cfg.seam.clock
	if clock == nil {
		clock = site.LogicalClock()
	}
	// One ledger spans every byte-holding subsystem, so /stats can answer
	// "where is the memory" with a single consistent snapshot.
	ledger := overload.NewLedger()
	cache := pagecache.New(upstream, ws, pagecache.Config{
		MaxBytes:   cfg.cacheBytes,
		DefaultTTL: ttl,
		Clock:      clock,
		Retry:      site.RetryPolicy{MaxRetries: cfg.retries},
		Sleeper:    cfg.seam.sleeper,
		Workers:    cfg.workers,
		Meter:      ledger.Account("pagecache"),
	})
	sys, err := ulixes.Open(upstream, ws, views)
	if err != nil {
		return nil, fmt.Errorf("statistics crawl: %w", err)
	}
	sys.SetExec(ulixes.ExecOptions{
		Workers:    cfg.workers,
		Pipelined:  true,
		Degraded:   cfg.degraded,
		Cache:      cache,
		PageBudget: cfg.pageBudget,
	})
	if cfg.planCache {
		sys.EnablePlanCache(ulixes.PlanCacheConfig{MaxEntries: cfg.planCacheEntries})
	}
	queue := overload.NewQueue(overload.QueueConfig{
		Slots:         cfg.maxQueries,
		MaxQueue:      cfg.queueLen,
		MaxWait:       cfg.queueWait,
		CapacityPages: cfg.capacityPages,
	})

	var selector *vselect.Selector
	if cfg.viewsAuto {
		// Workload-driven view answering: record every query's shape and
		// cost, and let the benefit/byte selector re-decide the materialized
		// view set as the workload drifts. The first selection crawls the
		// site into the backing store; until then every query misses to the
		// live planner.
		sys.EnableWorkload(0)
		sys.EnableViewAnswering(ulixes.ViewManagerConfig{
			Rewriter: ulixes.ViewRewriterConfig{Horizon: cfg.viewsHorizon, AllowStale: cfg.viewsStale},
			Budget:   cfg.viewsBudget,
		})
		selector = vselect.New(vselect.Config{
			Budget: cfg.viewsBudget,
			Views:  views,
			Model:  &cost.Model{Scheme: ws, Stats: sys.Stats()},
		})
		// Matview bytes are already tracked by the manager; the ledger polls
		// them as a gauge instead of double-charging every row mutation.
		ledger.Gauge("matview", func() int64 {
			if vm := sys.ViewManager(); vm != nil {
				return vm.Bytes()
			}
			return 0
		})
	}

	// Push-based consistency: one monitor, three sinks. Every observed page
	// mutation invalidates exactly the affected store entry, refreshes exactly
	// the changed materialized-view row, and re-answers exactly the standing
	// queries whose footprint it touches. The monitor and the view horizon
	// share wall time (vanswer stamps verifications with time.Now), unlike the
	// page store's logical TTL clock — the two ledgers never exchange instants.
	var (
		mon     *changefeed.Monitor
		reg     *standing.Registry
		mutator *sitegen.Mutator
	)
	if cfg.feed != "off" {
		mon = changefeed.New(upstream, changefeed.Config{
			Clock:       time.Now,
			Budget:      cfg.feedBudget,
			MinInterval: cfg.feedInterval,
		})
		// Sink 1: targeted page-store invalidation. A touch only bumps the
		// date, so the entry stays and the next access revalidates; anything
		// else drops the entry so the next access re-downloads.
		mon.Subscribe(changefeed.SinkFunc(func(ev changefeed.Event) {
			if ev.Kind == site.ChangeTouched {
				cache.MarkStale(ev.URL)
				return
			}
			cache.Invalidate(ev.URL)
		}))
		// Sink 2: incremental view maintenance. Each event re-wraps (or
		// drops) one page in the materialized store and rebuilds the applied
		// extents — no full crawl. In hook mode every mutation is observed,
		// so after applying one the whole extent is consistent through "now"
		// and the freshness horizon advances with it; in poll mode only a
		// clean full sweep proves that, via the sweep report below.
		if cfg.viewsAuto {
			hooked := cfg.feed == "hook"
			mon.Subscribe(changefeed.SinkFunc(func(ev changefeed.Event) {
				vm := sys.ViewManager()
				if vm == nil {
					return
				}
				if _, err := vm.ApplyChange(ev.URL, ev.Scheme, ev.Kind == site.ChangeRemoved); err != nil {
					log.Printf("ulixesd: feed: view refresh of %s: %v", ev.URL, err)
					return
				}
				if hooked {
					if at, ok := mon.VerifiedBound(); ok {
						vm.AdvanceHorizon(at)
					}
				}
			}))
			mon.SubscribeSweep(changefeed.SweepFunc(func(rep changefeed.SweepReport) {
				if !rep.Clean || rep.OldestVerified.IsZero() {
					return
				}
				if vm := sys.ViewManager(); vm != nil {
					vm.AdvanceHorizon(rep.OldestVerified)
				}
			}))
		}
		// Sink 3: standing queries, re-answered through the shared system so
		// deltas price in the plan cache, the page store and view answering.
		reg = standing.New(standing.Config{
			Views:        views,
			MaxSubs:      cfg.watchMax,
			MaxRingBytes: cfg.ringBytes,
			Meter:        ledger.Account("standingRings"),
			Clock:        time.Now,
			Answer: func(q *ulixes.Query) (*ulixes.Relation, error) {
				ans, err := sys.QueryCQ(q)
				if err != nil {
					return nil, err
				}
				return ans.Result, nil
			},
		})
		mon.Subscribe(reg)
		if univ != nil {
			mutator = sitegen.NewMutator(univ, ms, cfg.mutateSeed)
		}
		if cfg.feed == "hook" {
			mon.AttachMemSite(ms)
		} else {
			mon.WatchMemSite(ms)
		}
	}

	watchCtx, stopWatch := context.WithCancel(context.Background())
	sweepCtx, stopSweep := context.WithCancel(context.Background())
	s := &server{
		sys:        sys,
		cache:      cache,
		guard:      g,
		selector:   selector,
		viewsEvery: cfg.viewsEvery,
		feed:       mon,
		standing:   reg,
		mutator:    mutator,
		watchCtx:   watchCtx,
		stopWatch:  stopWatch,
		stopSweep:  stopSweep,
		queue:      queue,
		deadlines:  overload.DeadlineBudget{Default: cfg.deadline, Max: cfg.deadlineMax},
		ledger:     ledger,
		watchWrite: cfg.watchWriteTimeout,
	}
	if cfg.feed == "poll" {
		s.sweeper.Add(1)
		go func() {
			defer s.sweeper.Done()
			_ = mon.Run(sweepCtx, cfg.feedInterval, nil) // returns on cancel
		}()
	}
	return s, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		log.Fatalf("ulixesd: %v", err)
	}
	srv, err := assemble(cfg)
	if err != nil {
		log.Fatalf("ulixesd: %v", err)
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		log.Fatalf("ulixesd: %v", err)
	}
	hs := &http.Server{Handler: srv.handler()}
	go func() {
		log.Printf("ulixesd: serving %s on http://%s (max %d queries, ttl %s)",
			cfg.site, ln.Addr(), cfg.maxQueries, cfg.ttl)
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatalf("ulixesd: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("ulixesd: draining (up to %s)", cfg.drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	srv.drain()
	if err := hs.Shutdown(ctx); err != nil {
		log.Fatalf("ulixesd: drain: %v", err)
	}
	srv.stop()
	log.Printf("ulixesd: drained; %d queries served", srv.served.Load())
}

// parseTTL accepts a Go duration, "0" and the sentinel "forever".
func parseTTL(s string) (time.Duration, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "forever", "inf":
		return pagecache.Forever, nil
	case "0":
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad -ttl %q: a duration, 0 or forever", s)
	}
	return d, nil
}

// buildSite generates one of the paper's sites in memory. The university
// comes back with its generator handle, so a /mutate driver can be seeded
// over it; the bibliography has no mutation workload (u is nil).
func buildSite(name string, courses, profs, depts, authors int) (*site.MemSite, *ulixes.Scheme, *ulixes.Views, *sitegen.University, error) {
	switch name {
	case "university":
		u, err := sitegen.GenerateUniversity(sitegen.UniversityParams{
			Courses: courses, Profs: profs, Depts: depts,
		})
		if err != nil {
			return nil, nil, nil, nil, err
		}
		ms, err := site.NewMemSite(u.Instance, nil)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		return ms, u.Scheme, view.UniversityView(u.Scheme), u, nil
	case "bibliography":
		b, err := sitegen.GenerateBibliography(sitegen.BibliographyParams{Authors: authors})
		if err != nil {
			return nil, nil, nil, nil, err
		}
		ms, err := site.NewMemSite(b.Instance, nil)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		return ms, b.Scheme, view.BibliographyView(b.Scheme), nil, nil
	default:
		return nil, nil, nil, nil, fmt.Errorf("unknown site %q (university or bibliography)", name)
	}
}
