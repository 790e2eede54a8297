// Package engine is the virtual-view query engine (§5–§7 of the paper): it
// accepts conjunctive queries over the external view, optimizes them with
// Algorithm 1, executes the chosen plan by navigating the (simulated) web,
// and reports both the answer and the measured number of page accesses.
package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"ulixes/internal/adm"
	"ulixes/internal/cq"
	"ulixes/internal/nalg"
	"ulixes/internal/nested"
	"ulixes/internal/optimizer"
	"ulixes/internal/pagecache"
	"ulixes/internal/plancache"
	"ulixes/internal/site"
	"ulixes/internal/stats"
	"ulixes/internal/view"
	"ulixes/internal/workload"
)

// ExecOptions tunes plan execution.
type ExecOptions struct {
	// Workers is the query's parallelism (0 means site.DefaultFetchWorkers),
	// and this is the one statement of what it bounds. A session batch
	// issues at most Workers network accesses at once. The sequential
	// evaluator runs one batch at a time; the pipelined one runs up to
	// Workers follow fetch tasks at once, each a batch of up to Workers new
	// URLs, so a pipelined query keeps up to Workers × Workers GETs in
	// flight on a store without MaxInFlight (a shared Cache). A store hit
	// never occupies a task slot: the follow stage resolves it before it
	// spawns a task, and a task carries only the URLs left. The private
	// store built when Cache is nil sets MaxInFlight = Workers, bounding
	// the whole query at Workers. With Workers=1 and Pipelined=false the
	// execution is the paper's fully sequential navigation.
	Workers int
	// Pipelined selects the streaming parallel evaluator: follow-link
	// stages prefetch as their input arrives and join branches run
	// concurrently. The answer and the measured page accesses are
	// identical to sequential execution — only wall time changes.
	Pipelined bool
	// Retry configures resilient fetching: bounded retries with
	// exponential backoff + deterministic jitter and per-attempt
	// deadlines. The zero policy is the strict single-attempt behavior.
	// With Cache set it is ignored — resilience is configured on the cache.
	Retry site.RetryPolicy
	// Degraded turns fetch failures into partial answers: unreachable
	// pages are left out (like dangling links) instead of aborting the
	// query, and the missing URLs are reported in ExecStats.FailedPages.
	Degraded bool
	// Sleeper overrides how backoffs and attempt deadlines wait (nil means
	// real timers). Deterministic tests inject site.InstantSleeper so
	// chaos runs never touch the wall clock. Ignored with Cache set.
	Sleeper site.Sleeper
	// Cache, when non-nil, serves the query from the shared cross-query
	// page store instead of a private store that lives for this query
	// only: pages cached by earlier queries are hits or §8 revalidations
	// (see ExecStats), and pages this query downloads are left behind for
	// later queries.
	Cache *pagecache.Cache
	// PageBudget caps the distinct pages one query may access (0 =
	// unlimited); exceeding it aborts the query with
	// pagecache.ErrBudgetExceeded.
	PageBudget int
}

// ExecStats are the measured per-query execution counters, filled from the
// query's pagecache.Session.
//
// With a private per-query store (the default), Pages alone is the paper's
// distinct-access cost. With a shared page store (ExecOptions.Cache) the
// cost splits by how each access was resolved:
//
//	Accesses = Pages + CacheHits + Revalidations + Stale = C(E)
//
// — invariant across cold and warm stores, while Pages alone is what the
// query actually cost the network.
type ExecStats struct {
	// Accesses is the number of distinct pages the query touched, as the
	// session counted them.
	Accesses int
	// Pages is the number of distinct page downloads — physical GETs this
	// query's accesses resolved to (the paper's cost on a cold store).
	Pages int
	// SharedFetches ⊆ Pages is the number of those GETs a concurrent query
	// on the same shared store issued and this one joined (always 0 on a
	// private store).
	SharedFetches int
	// Bytes is the total HTML bytes downloaded.
	Bytes int64
	// Wall is the elapsed execution time.
	Wall time.Duration
	// PeakInFlight is the maximum number of simultaneous network accesses
	// the store's transport has seen: this query's own peak on a private
	// store, the store's lifetime high-water mark on a shared one.
	PeakInFlight int
	// Retries is the number of retry attempts spent on this query's
	// accesses — extra network accesses beyond the paper's distinct-page
	// cost.
	Retries int
	// FailedPages lists the URLs a degraded execution could not fetch and
	// left out of the answer, in sorted order.
	FailedPages []string
	// Failures carries the structured per-URL diagnostics behind
	// FailedPages: each unreachable page with its final error and the
	// retry attempts spent on it.
	Failures []site.FetchFailure
	// Degraded reports that the answer is partial: degraded mode was on
	// and at least one page was unreachable.
	Degraded bool
	// CacheHits is the number of accesses served fresh from the shared
	// page store (always 0 without ExecOptions.Cache).
	CacheHits int
	// Revalidations is the number of accesses whose expired store entry a
	// light connection confirmed unchanged (§8) — served locally at the
	// price of one HEAD.
	Revalidations int
	// LightConnections is the number of HEADs issued for this query's
	// accesses.
	LightConnections int
	// Stale is the number of accesses answered from expired store entries
	// because the origin's circuit breaker was open: the answer includes
	// those pages at reduced freshness rather than losing them. Stale > 0
	// always marks the answer Degraded.
	Stale int
	// StalePages lists the URLs served stale, in sorted order.
	StalePages []string
	// Hedges is the number of extra hedged GETs the site-health guard
	// issued against stragglers; HedgeWins is how many answered first.
	Hedges    int
	HedgeWins int
	// BreakerFastFails is the number of access attempts an open circuit
	// breaker rejected without touching the network.
	BreakerFastFails int
	// Updates ⊆ Pages is the number of downloads that replaced a stored
	// page the site had changed: on a materialized view (Materialize), the
	// §8 maintenance the query applied as a side effect.
	Updates int
	// PlanCached reports that the plan came from the prepared-plan cache:
	// parse, typecheck, rewriting and costing were skipped and the cached
	// plan was specialized with this query's constants. Always false
	// without Engine.Plans.
	PlanCached bool
	// PlanWall is the time spent producing the executable plan — a full
	// Algorithm 1 run on a miss, a cache specialization on a hit. Zero for
	// Execute/ExecuteOpts, which are handed a plan.
	PlanWall time.Duration
	// AnsweredFromView reports that the query never navigated at all: a
	// sound rewrite over materialized views answered it locally (see
	// internal/vanswer), so Pages and every other network counter are zero.
	// Always false without Engine.ViewAnswers.
	AnsweredFromView bool
}

// Add folds another execution's counters into s: counts and byte/time
// totals accumulate, flags OR, and PeakInFlight takes the maximum (peaks do
// not sum across executions). The per-URL lists (FailedPages, Failures,
// StalePages) describe one answer and are not folded, so a running total
// across queries — a server's — stays the same size however many it sums.
// TestExecStatsAddFoldsEveryField holds this method to folding every other
// ExecStats field, so a new counter cannot be silently dropped from
// aggregation.
func (s *ExecStats) Add(o ExecStats) {
	s.Accesses += o.Accesses
	s.Pages += o.Pages
	s.SharedFetches += o.SharedFetches
	s.Bytes += o.Bytes
	s.Wall += o.Wall
	if o.PeakInFlight > s.PeakInFlight {
		s.PeakInFlight = o.PeakInFlight
	}
	s.Retries += o.Retries
	s.Degraded = s.Degraded || o.Degraded
	s.CacheHits += o.CacheHits
	s.Revalidations += o.Revalidations
	s.LightConnections += o.LightConnections
	s.Stale += o.Stale
	s.Hedges += o.Hedges
	s.HedgeWins += o.HedgeWins
	s.BreakerFastFails += o.BreakerFastFails
	s.Updates += o.Updates
	s.PlanCached = s.PlanCached || o.PlanCached
	s.PlanWall += o.PlanWall
	s.AnsweredFromView = s.AnsweredFromView || o.AnsweredFromView
}

// Engine answers queries over a web site through a relational view.
type Engine struct {
	Views  *view.Registry
	Server site.Server
	// Opt plans queries; Opt.Stats are the site statistics it costs
	// against. They are read-only: refreshed statistics are a new value
	// assigned to Opt.Stats, under which cached plans miss and re-plan.
	Opt *optimizer.Optimizer
	// Exec is the execution configuration used by Query/QueryCQ/Execute.
	Exec ExecOptions
	// Plans, when non-nil, caches prepared plans by query shape: repeated
	// query shapes skip Algorithm 1 entirely (see internal/plancache).
	Plans *plancache.Cache
	// ViewAnswers, when non-nil, is consulted before planning: a query it
	// answers soundly from materialized views skips navigation entirely
	// (Answer.FromView, ExecStats.AnsweredFromView). A decline or an error
	// falls back to the live plan — view answering can only save work,
	// never change an answer.
	ViewAnswers ViewAnswerer
	// Workload, when non-nil, records every query's canonicalized shape
	// and measured cost — the input to benefit-driven view selection (see
	// internal/workload and internal/vselect).
	Workload *workload.Recorder

	scopes atomic.Pointer[optScope] // the plan-cache scope of Opt.Opts
}

// ViewAnswerer is the view-rewriting hook (implemented by
// vanswer.Manager/Rewriter): TryAnswer returns the query's full answer and
// ok=true only when a sound rewrite over materialized views exists.
type ViewAnswerer interface {
	TryAnswer(q *cq.Query) (*nested.Relation, bool, error)
}

// New creates an engine. Statistics may come from stats.CollectSite (a
// crawl) or stats.CollectInstance (ground truth in tests).
func New(views *view.Registry, server site.Server, st *stats.Stats) *Engine {
	return &Engine{
		Views:  views,
		Server: server,
		Opt:    optimizer.New(views, st),
	}
}

// Answer is the result of a query: the relation, the plan that produced it,
// all candidates considered, and the measured network cost.
type Answer struct {
	Result *nested.Relation
	Plan   optimizer.Plan
	// Candidates are the plans Algorithm 1 kept for this query, cheapest
	// first. A plan-cache hit planned nothing and leaves them nil.
	Candidates []optimizer.Plan
	// PagesFetched is the measured number of distinct page downloads the
	// execution performed — the quantity the paper's cost model estimates.
	PagesFetched int
	// Exec carries the full execution counters (pages, bytes, wall time,
	// peak in-flight downloads).
	Exec ExecStats
	// FromView reports that the answer came from materialized views: no
	// plan was built (Plan is zero) and no page was accessed.
	FromView bool
}

// Query parses, optimizes and executes a conjunctive query.
func (e *Engine) Query(src string) (*Answer, error) {
	return e.QueryCtx(context.Background(), src) //lint:allow noctxbg context-free API compatibility
}

// QueryCtx parses, optimizes and executes a conjunctive query under the
// caller's context: the request deadline and cancellation propagate through
// the evaluator down to every page access.
func (e *Engine) QueryCtx(ctx context.Context, src string) (*Answer, error) {
	q, err := cq.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.QueryCQCtx(ctx, q)
}

// QueryCQ optimizes and executes a parsed conjunctive query.
func (e *Engine) QueryCQ(q *cq.Query) (*Answer, error) {
	return e.QueryCQCtx(context.Background(), q) //lint:allow noctxbg context-free API compatibility
}

// QueryCQCtx optimizes and executes a parsed conjunctive query under the
// caller's context.
func (e *Engine) QueryCQCtx(ctx context.Context, q *cq.Query) (*Answer, error) {
	return e.QueryCQOptsCtx(ctx, q, e.Exec)
}

// EstimatedPages returns the prepared-plan cache's page-cost estimate for
// a query's shape, when the engine has a plan cache and has already planned
// that shape. It never optimizes: a cold shape returns ok=false and
// admission control treats its cost as unknown rather than paying
// Algorithm 1 at the door. A server that prices a request here and then
// runs it with QueryShapeOptsCtx canonicalizes the query once.
func (e *Engine) EstimatedPages(sh plancache.Shape) (float64, bool) {
	if e.Plans == nil {
		return 0, false
	}
	return e.Plans.Peek(sh, e.Opt.Stats, e.scope())
}

// optScope is the plan-cache scope of one optimizer configuration.
type optScope struct {
	opts optimizer.Options
	text string
}

// scope scopes cached plans to the optimizer configuration, so an ablation
// or beam change never resurrects plans chosen under other rules. The
// scope string is formatted once per configuration, not per request.
func (e *Engine) scope() string {
	if sc := e.scopes.Load(); sc != nil && sc.opts == e.Opt.Opts {
		return sc.text
	}
	sc := &optScope{opts: e.Opt.Opts, text: fmt.Sprintf("%+v", e.Opt.Opts)}
	e.scopes.Store(sc)
	return sc.text
}

// QueryCQOptsCtx is QueryCQCtx with per-query execution options: the server
// uses it to force degraded mode on deadline-bounded queries (so expiry
// yields a partial answer instead of an error) without changing the
// engine-wide configuration other callers share.
func (e *Engine) QueryCQOptsCtx(ctx context.Context, q *cq.Query, opts ExecOptions) (*Answer, error) {
	return e.QueryShapeOptsCtx(ctx, plancache.ShapeOf(q), opts)
}

// QueryShapeOptsCtx is QueryCQOptsCtx for a query whose shape the caller
// has already worked out, for admission's EstimatedPages.
func (e *Engine) QueryShapeOptsCtx(ctx context.Context, sh plancache.Shape, opts ExecOptions) (*Answer, error) {
	q := sh.Query()
	planStart := time.Now()
	if e.ViewAnswers != nil {
		// A decline (ok=false) or a local-evaluation error both fall back
		// to the live plan below; view answering never loses a query.
		if rel, ok, verr := e.ViewAnswers.TryAnswer(q); verr == nil && ok {
			st := ExecStats{Wall: time.Since(planStart), AnsweredFromView: true}
			e.record(q, st)
			return &Answer{Result: rel, Exec: st, FromView: true}, nil
		}
	}
	var b plancache.Bound
	var err error
	if e.Plans != nil {
		b, err = e.Plans.Bind(sh, e.Opt.Stats, e.scope(), e.Opt.Optimize, e.prepare)
	} else {
		b.Result, err = e.Opt.Optimize(q)
		if err == nil {
			b.Exec, err = e.prepare(b.Result.Best.Expr)
		}
	}
	if err != nil {
		return nil, err
	}
	planWall := time.Since(planStart)
	res := b.Result
	rel, st, err := e.run(ctx, res.Best.Expr, b.Exec, opts)
	if err != nil {
		return nil, err
	}
	st.PlanCached = b.Cached
	st.PlanWall = planWall
	e.record(q, st)
	return &Answer{
		Result:       rel,
		Plan:         res.Best,
		Candidates:   res.Candidates,
		PagesFetched: st.Pages,
		Exec:         st,
	}, nil
}

// record feeds the workload recorder, when one is attached.
func (e *Engine) record(q *cq.Query, st ExecStats) {
	if e.Workload == nil {
		return
	}
	e.Workload.Record(q, workload.Observed{
		Pages:    st.Pages,
		Accesses: st.Accesses,
		Wall:     st.Wall,
		FromView: st.AnsweredFromView,
	})
}

// Execute evaluates a computable plan against the site, returning the
// result and the number of distinct pages downloaded. It uses the engine's
// execution configuration.
func (e *Engine) Execute(expr nalg.Expr) (*nested.Relation, int, error) {
	rel, st, err := e.ExecuteOpts(expr, e.Exec)
	if err != nil {
		return nil, 0, err
	}
	return rel, st.Pages, nil
}

// ExecuteOpts evaluates a computable plan under explicit execution options,
// returning the result and the measured execution counters. The page-access
// count is invariant under the options: pipelining and parallelism never
// change which pages are fetched. Before touching the network the plan is
// statically typechecked with nalg.Check; an ill-typed plan is rejected
// here rather than failing (or silently misnavigating) mid-execution.
func (e *Engine) ExecuteOpts(expr nalg.Expr, opts ExecOptions) (*nested.Relation, ExecStats, error) {
	return e.ExecuteOptsCtx(context.Background(), expr, opts) //lint:allow noctxbg context-free API compatibility
}

// ExecuteOptsCtx is ExecuteOpts under the caller's context: the deadline
// and cancellation propagate to every page access the plan performs.
func (e *Engine) ExecuteOptsCtx(ctx context.Context, expr nalg.Expr, opts ExecOptions) (*nested.Relation, ExecStats, error) {
	prep, err := e.prepare(expr)
	if err != nil {
		return nil, ExecStats{}, err
	}
	return e.run(ctx, expr, prep, opts)
}

// prepare is a plan's per-shape execution work: the typing gate every plan
// passes before touching the network (an ExtScan leaf fails it as
// not-computable), and nalg.Prepare's schema inference, hash-join build
// sides and kept columns. A plan-cache entry runs it once for its shape.
func (e *Engine) prepare(expr nalg.Expr) (*nalg.Prepared, error) {
	if diags := nalg.Check(expr, e.Views.Scheme); len(diags) > 0 {
		return nil, fmt.Errorf("engine: plan is ill-typed (%d diagnostics): %s", len(diags), diags[0])
	}
	return nalg.Prepare(expr, e.Views.Scheme, e.cardEstimator())
}

// run evaluates a prepared plan. Every plan runs through one
// pagecache.Session — on the shared store when the options carry one, on a
// private store otherwise — so physical fetches are deduplicated and the
// session's ledger is the single source of ExecStats.
func (e *Engine) run(ctx context.Context, expr nalg.Expr, prep *nalg.Prepared, opts ExecOptions) (*nested.Relation, ExecStats, error) {
	store := opts.Cache
	if store == nil {
		// No shared store: the query gets a private one — nothing expires,
		// nothing is evicted, and the whole query shares one connection
		// limit, so Pages alone is the paper's distinct-access cost.
		workers := opts.Workers
		if workers <= 0 {
			workers = site.DefaultFetchWorkers
		}
		store = pagecache.New(e.Server, e.Views.Scheme, pagecache.Config{
			DefaultTTL:  pagecache.Forever,
			Retry:       opts.Retry,
			Sleeper:     opts.Sleeper,
			Workers:     workers,
			MaxInFlight: workers,
		})
	}
	sess := store.NewSession(pagecache.SessionOptions{
		PageBudget: opts.PageBudget,
		Degraded:   opts.Degraded,
		Workers:    opts.Workers,
	})
	start := time.Now()
	src := nalg.FetcherSource{F: sess, Ctx: ctx}
	var rel *nested.Relation
	var err error
	if opts.Pipelined {
		rel, err = prep.Run(expr, src, nalg.EvalOptions{Workers: opts.Workers})
	} else {
		rel, err = nalg.Eval(expr, e.Views.Scheme, src)
	}
	if err != nil {
		return nil, ExecStats{}, err
	}
	st := sess.Stats()
	failures := sess.Failures()
	failed := make([]string, len(failures))
	for i, f := range failures {
		failed[i] = f.URL
	}
	return rel, ExecStats{
		Accesses:         st.Accesses,
		Pages:            st.Fetches,
		SharedFetches:    st.SharedFetches,
		Bytes:            st.Bytes,
		Wall:             time.Since(start),
		PeakInFlight:     store.Stats().PeakInFlight,
		Retries:          st.Retries,
		FailedPages:      failed,
		Failures:         failures,
		Degraded:         (opts.Degraded && len(failed) > 0) || st.Stale > 0,
		CacheHits:        st.CacheHits,
		Revalidations:    st.Revalidations,
		LightConnections: st.LightConnections,
		Stale:            st.Stale,
		StalePages:       sess.StaleURLs(),
		Hedges:           st.Hedges,
		HedgeWins:        st.HedgeWins,
		BreakerFastFails: st.BreakerFastFails,
		Updates:          st.Updates,
	}, nil
}

// Materialize crawls the site into a materialized view (§8): a page store
// built by pagecache.NewView that keeps the pages of the retained page-schemes (all
// of them when retain is empty). An engine whose ExecOptions.Cache is the
// store runs Algorithm 3: a query costs C(E) light connections plus one
// download per page the site changed, and maintains the view as it goes.
// The crawl still visits every page, since links must be followed to reach
// the portion kept. A dangling link is skipped; a missing entry point fails
// the materialization.
func Materialize(server site.Server, ws *adm.Scheme, retain ...string) (*pagecache.Cache, error) {
	for _, name := range retain {
		if ws.Page(name) == nil {
			return nil, fmt.Errorf("engine: materialize: unknown page-scheme %q", name)
		}
	}
	store := pagecache.NewView(server, ws, pagecache.Config{Retain: retain})
	if _, _, err := stats.CrawlWithSizes(store, ws); err != nil {
		return nil, fmt.Errorf("engine: materialize: %w", err)
	}
	return store, nil
}

// cardEstimator exposes the optimizer's cost model to the pipelined hash
// join, which builds on the side with the smaller estimated cardinality.
func (e *Engine) cardEstimator() func(nalg.Expr) (float64, bool) {
	m := e.Opt.Model()
	return func(x nalg.Expr) (float64, bool) {
		est, err := m.Estimate(x)
		if err != nil {
			return 0, false
		}
		return est.Card, true
	}
}
