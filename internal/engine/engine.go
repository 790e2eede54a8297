// Package engine is the virtual-view query engine (§5–§7 of the paper): it
// accepts conjunctive queries over the external view, optimizes them with
// Algorithm 1, executes the chosen plan by navigating the (simulated) web,
// and reports both the answer and the measured number of page accesses.
package engine

import (
	"context"
	"fmt"
	"time"

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
	// flight on a store without MaxInFlight (a shared Cache). The private
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

// Add folds another execution's statistics into s: counters and byte/time
// totals accumulate, failure lists concatenate, flags OR, and PeakInFlight
// takes the maximum (peaks do not sum across executions). It is how a server
// maintains running totals across queries. The statsexhaustive analyzer
// holds this method to mentioning every ExecStats field, so a new counter
// cannot be silently dropped from aggregation.
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
	s.FailedPages = append(s.FailedPages, o.FailedPages...)
	s.Failures = append(s.Failures, o.Failures...)
	s.Degraded = s.Degraded || o.Degraded
	s.CacheHits += o.CacheHits
	s.Revalidations += o.Revalidations
	s.LightConnections += o.LightConnections
	s.Stale += o.Stale
	s.StalePages = append(s.StalePages, o.StalePages...)
	s.Hedges += o.Hedges
	s.HedgeWins += o.HedgeWins
	s.BreakerFastFails += o.BreakerFastFails
	s.PlanCached = s.PlanCached || o.PlanCached
	s.PlanWall += o.PlanWall
	s.AnsweredFromView = s.AnsweredFromView || o.AnsweredFromView
}

// Engine answers queries over a web site through a relational view.
type Engine struct {
	Views  *view.Registry
	Server site.Server
	Stats  *stats.Stats
	Opt    *optimizer.Optimizer
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
		Stats:  st,
		Opt:    optimizer.New(views, st),
	}
}

// Answer is the result of a query: the relation, the plan that produced it,
// all candidates considered, and the measured network cost.
type Answer struct {
	Result     *nested.Relation
	Plan       optimizer.Plan
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
// q's shape, when the engine has a plan cache and has already planned that
// shape. It never optimizes: a cold shape returns ok=false and admission
// control treats its cost as unknown rather than paying Algorithm 1 at the
// door.
func (e *Engine) EstimatedPages(q *cq.Query) (float64, bool) {
	if e.Plans == nil {
		return 0, false
	}
	scope := fmt.Sprintf("%+v", e.Opt.Opts)
	return e.Plans.Peek(q, scope)
}

// QueryCQOptsCtx is QueryCQCtx with per-query execution options: the server
// uses it to force degraded mode on deadline-bounded queries (so expiry
// yields a partial answer instead of an error) without changing the
// engine-wide configuration other callers share.
func (e *Engine) QueryCQOptsCtx(ctx context.Context, q *cq.Query, opts ExecOptions) (*Answer, error) {
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
	var res *optimizer.Result
	var cached bool
	var err error
	if e.Plans != nil {
		// Scope cached plans to the optimizer configuration: an ablation
		// or beam change must not resurrect plans chosen under other rules.
		scope := fmt.Sprintf("%+v", e.Opt.Opts)
		res, cached, err = e.Plans.Prepare(q, e.Stats, scope, e.Opt.Optimize)
	} else {
		res, err = e.Opt.Optimize(q)
	}
	if err != nil {
		return nil, err
	}
	planWall := time.Since(planStart)
	rel, st, err := e.ExecuteOptsCtx(ctx, res.Best.Expr, opts)
	if err != nil {
		return nil, err
	}
	st.PlanCached = cached
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
// and cancellation propagate to every page access the plan performs. Every
// plan runs through one pagecache.Session — on the shared store when the
// options carry one, on a private store otherwise — so physical fetches are
// deduplicated and the session's ledger is the single source of ExecStats.
func (e *Engine) ExecuteOptsCtx(ctx context.Context, expr nalg.Expr, opts ExecOptions) (*nested.Relation, ExecStats, error) {
	if !nalg.Computable(expr) {
		return nil, ExecStats{}, fmt.Errorf("engine: plan is not computable: %s", expr)
	}
	if diags := nalg.Check(expr, e.Views.Scheme); len(diags) > 0 {
		return nil, ExecStats{}, fmt.Errorf("engine: plan is ill-typed (%d diagnostics): %s", len(diags), diags[0])
	}
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
	rel, err := nalg.EvalWithOptions(expr, e.Views.Scheme, nalg.FetcherSource{F: sess, Ctx: ctx}, nalg.EvalOptions{
		Pipelined:    opts.Pipelined,
		Workers:      opts.Workers,
		EstimateCard: e.cardEstimator(),
	})
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
	}, nil
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
