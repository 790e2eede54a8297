// Command ulixesd is a long-running query server: many concurrent clients
// share one site, one optimizer and one cross-query page store, so pages
// downloaded for one query answer the next one for free (or for the price
// of a §8 light connection once their TTL expires).
//
// Usage:
//
//	ulixesd [-addr 127.0.0.1:8099] [-site university|bibliography]
//	        [-ttl 30s|forever] [-cache-bytes N] [-page-budget N]
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
// With -smoke the server starts on an ephemeral port, runs a deterministic
// multi-client workload against itself, checks every answer and the exact
// page-access accounting, and exits non-zero on any mismatch (used by
// scripts/verify.sh and CI).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
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

func main() {
	addr := flag.String("addr", "127.0.0.1:8099", "listen address")
	siteName := flag.String("site", "university", "site to serve: university or bibliography")
	courses := flag.Int("courses", 50, "university: number of courses")
	profs := flag.Int("profs", 20, "university: number of professors")
	depts := flag.Int("depts", 3, "university: number of departments")
	authors := flag.Int("authors", 500, "bibliography: number of authors")
	workers := flag.Int("workers", 0, "query parallelism: up to N follow tasks of N page accesses each in flight (0 = default; see engine.ExecOptions.Workers)")
	maxQueries := flag.Int("max-queries", 8, "max in-flight queries; excess requests queue or get 429")
	queueLen := flag.Int("queue", 0, "admission queue length beyond -max-queries (0 = reject immediately)")
	queueWait := flag.Duration("queue-wait", 2*time.Second, "max queue sojourn; overdue waiters are dropped with 429")
	capacityPages := flag.Float64("capacity-pages", 0, "estimated-page capacity across in-flight queries (0 = unlimited)")
	deadline := flag.Duration("deadline", 0, "default per-query deadline when the client sends none (0 = none)")
	deadlineMax := flag.Duration("deadline-max", 0, "hard ceiling on any per-query deadline (0 = no ceiling)")
	pageBudget := flag.Int("page-budget", 0, "max distinct pages one query may access (0 = unlimited)")
	ttl := flag.String("ttl", "forever", "page TTL: a duration, 0 (revalidate every re-access) or forever")
	cacheBytes := flag.Int64("cache-bytes", 0, "shared store byte bound (0 = unbounded)")
	pipelined := flag.Bool("pipelined", true, "use the streaming parallel evaluator")
	retries := flag.Int("retries", 0, "retries per page fetch in the shared store")
	degraded := flag.Bool("degraded", false, "partial answers when pages are unreachable")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-drain bound on shutdown")
	useGuard := flag.Bool("guard", true, "run fetches through the per-host site-health guard")
	breakerThreshold := flag.Float64("breaker-threshold", guard.DefaultErrorThreshold, "EWMA error rate that opens a host's circuit breaker")
	breakerOpenFor := flag.Duration("breaker-open-for", guard.DefaultOpenFor, "how long an open breaker fast-fails before probing")
	hostFetches := flag.Int("host-fetches", 0, "per-host bulkhead: max in-flight fetches per host (0 = unbounded)")
	hedgeAfter := flag.Duration("hedge-after", 0, "hedge straggler GETs after this delay (0 = no hedging)")
	planCache := flag.Bool("plan-cache", true, "cache prepared plans by query shape (constants parameterized out)")
	planCacheEntries := flag.Int("plan-cache-entries", 0, "max cached plan shapes (0 = default)")
	viewsAuto := flag.Bool("views-auto", false, "record the workload and materialize the most beneficial views automatically")
	viewsBudget := flag.Int64("views-budget", 0, "storage budget in bytes for materialized view extents (0 = unlimited)")
	viewsHorizon := flag.Duration("views-horizon", 0, "freshness horizon: views older than this stop answering (0 = never expire)")
	viewsStale := flag.Bool("views-stale", false, "serve views past the freshness horizon instead of navigating live")
	viewsEvery := flag.Int("views-every", 50, "re-run view selection every N served queries")
	feedMode := flag.String("feed", "off", "push feed: off, hook (site mutation hook) or poll (adaptive HEAD sweeps)")
	feedBudget := flag.Int("feed-budget", 0, "poll feed: max light connections per sweep (0 = unlimited)")
	feedInterval := flag.Duration("feed-interval", 10*time.Second, "poll feed: sweep period and minimum per-URL check cadence")
	watchMax := flag.Int("watch-max", standing.DefaultMaxSubs, "max concurrent standing-query subscriptions")
	ringBytes := flag.Int("ring-bytes", 0, "per-subscription delta-ring byte bound; oldest dropped first (0 = count bound only)")
	watchWriteTimeout := flag.Duration("watch-write-timeout", defaultWatchWrite, "per-write /watch deadline; slow clients are disconnected (0 = none)")
	mutateSeed := flag.Int64("mutate-seed", 1, "seed for the /mutate mutation workload")
	smoke := flag.Bool("smoke", false, "self-test: serve on an ephemeral port, run a concurrent workload, exit")
	flag.Parse()

	ttlDur, err := parseTTL(*ttl)
	if err != nil {
		log.Fatalf("ulixesd: %v", err)
	}

	ms, ws, views, univ, err := buildSite(*siteName, *courses, *profs, *depts, *authors)
	if err != nil {
		log.Fatalf("ulixesd: %v", err)
	}
	// The guard composes transparently: it is simply the server the store
	// and the engine fetch through, so breakers, bulkheads and hedges apply
	// to every page access without further wiring.
	var server site.Server = ms
	var g *guard.Guard
	if *useGuard {
		g = guard.New(ms, guard.Config{
			ErrorThreshold: *breakerThreshold,
			OpenFor:        *breakerOpenFor,
			MaxPerHost:     *hostFetches,
			HedgeAfter:     *hedgeAfter,
		})
		server = g
	}
	// One ledger spans every byte-holding subsystem, so /stats can answer
	// "where is the memory" with a single consistent snapshot.
	ledger := overload.NewLedger()
	cache := pagecache.New(server, ws, pagecache.Config{
		MaxBytes:   *cacheBytes,
		DefaultTTL: ttlDur,
		Clock:      site.LogicalClock(),
		Retry:      site.RetryPolicy{MaxRetries: *retries},
		Workers:    *workers,
		Meter:      ledger.Account("pagecache"),
	})
	sys, err := ulixes.Open(server, ws, views)
	if err != nil {
		log.Fatalf("ulixesd: statistics crawl: %v", err)
	}
	sys.SetExec(ulixes.ExecOptions{
		Workers:    *workers,
		Pipelined:  *pipelined,
		Degraded:   *degraded,
		Cache:      cache,
		PageBudget: *pageBudget,
	})
	if *planCache {
		sys.EnablePlanCache(ulixes.PlanCacheConfig{MaxEntries: *planCacheEntries})
	}

	srv := newServer(sys, cache, *maxQueries)
	srv.guard = g
	srv.ledger = ledger
	srv.queue = overload.NewQueue(overload.QueueConfig{
		Slots:         *maxQueries,
		MaxQueue:      *queueLen,
		MaxWait:       *queueWait,
		CapacityPages: *capacityPages,
	})
	srv.deadlines = overload.DeadlineBudget{Default: *deadline, Max: *deadlineMax}
	srv.watchWrite = *watchWriteTimeout
	if *viewsAuto {
		// Workload-driven view answering: record every query's shape and
		// cost, and let the benefit/byte selector re-decide the materialized
		// view set as the workload drifts. The first selection crawls the
		// site into the backing store; until then every query misses to the
		// live planner.
		sys.EnableWorkload(0)
		sys.EnableViewAnswering(ulixes.ViewManagerConfig{
			Rewriter: ulixes.ViewRewriterConfig{Horizon: *viewsHorizon, AllowStale: *viewsStale},
			Budget:   *viewsBudget,
		})
		srv.selector = vselect.New(vselect.Config{
			Budget: *viewsBudget,
			Views:  views,
			Model:  &cost.Model{Scheme: ws, Stats: sys.Stats()},
		})
		srv.viewsEvery = *viewsEvery
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
	feedCtx, stopFeed := context.WithCancel(context.Background())
	defer stopFeed()
	var feedWG sync.WaitGroup
	if *feedMode != "off" {
		if *feedMode != "hook" && *feedMode != "poll" {
			log.Fatalf("ulixesd: bad -feed %q (off, hook or poll)", *feedMode)
		}
		mon := changefeed.New(server, changefeed.Config{
			Clock:       time.Now,
			Budget:      *feedBudget,
			MinInterval: *feedInterval,
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
		if *viewsAuto {
			hooked := *feedMode == "hook"
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
		reg := standing.New(standing.Config{
			Views:        views,
			MaxSubs:      *watchMax,
			MaxRingBytes: *ringBytes,
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
		srv.feed = mon
		srv.standing = reg
		if univ != nil {
			srv.mutator = sitegen.NewMutator(univ, ms, *mutateSeed)
		}
		if *feedMode == "hook" {
			mon.AttachMemSite(ms)
		} else {
			mon.WatchMemSite(ms)
			feedWG.Add(1)
			go func() {
				defer feedWG.Done()
				_ = mon.Run(feedCtx, *feedInterval, nil) // returns on cancel
			}()
		}
	}

	if *smoke {
		err := runSmoke(srv)
		stopFeed()
		feedWG.Wait()
		if err != nil {
			log.Fatalf("ulixesd: smoke: %v", err)
		}
		fmt.Println("ulixesd: smoke OK")
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("ulixesd: %v", err)
	}
	hs := &http.Server{Handler: srv.handler()}
	go func() {
		log.Printf("ulixesd: serving %s on http://%s (max %d queries, ttl %s)",
			*siteName, ln.Addr(), *maxQueries, *ttl)
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatalf("ulixesd: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("ulixesd: draining (up to %s)", *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	srv.drain()
	if err := hs.Shutdown(ctx); err != nil {
		log.Fatalf("ulixesd: drain: %v", err)
	}
	stopFeed()
	feedWG.Wait()       // stop the poll-mode sweeper
	srv.selectWG.Wait() // let an in-flight background view selection settle
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
