// Package ulixes is a query system for relational views over web sites,
// reproducing "Efficient Queries over Web Views" (Mecca, Mendelzon,
// Merialdo, 1998). It models a site with a subset of the Araneus data model
// (page-schemes plus link and inclusion constraints), exposes relational
// external views over it, translates conjunctive queries into a
// navigational algebra, optimizes them with constraint-aware rewrite rules
// under a network-access cost model, and executes them either virtually
// (navigating the site) or against a lazily maintained materialized view.
//
// The typical flow:
//
//	u, _ := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
//	server, _ := site.NewMemSite(u.Instance, nil)
//	sys, _ := ulixes.Open(server, u.Scheme, view.UniversityView(u.Scheme))
//	ans, _ := sys.Query("SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'")
//
// Open crawls the site once to gather the statistics the optimizer's cost
// model needs (§6.2 of the paper); OpenWithStats skips the crawl when
// statistics are already available.
package ulixes

import (
	"context"
	"fmt"
	"strings"

	"ulixes/internal/adm"
	"ulixes/internal/cq"
	"ulixes/internal/engine"
	"ulixes/internal/nalg"
	"ulixes/internal/nested"
	"ulixes/internal/optimizer"
	"ulixes/internal/pagecache"
	"ulixes/internal/plancache"
	"ulixes/internal/site"
	"ulixes/internal/stats"
	"ulixes/internal/vanswer"
	"ulixes/internal/view"
	"ulixes/internal/workload"
)

// Re-exported types, so downstream users interact with one package.
type (
	// Scheme is an ADM web scheme: page-schemes, entry points, link and
	// inclusion constraints.
	Scheme = adm.Scheme
	// Server is the remote-site abstraction: page downloads (GET) and
	// light connections (HEAD).
	Server = site.Server
	// Views is a registry of external relations with default navigations.
	Views = view.Registry
	// Stats are the site statistics driving the cost model.
	Stats = stats.Stats
	// Answer is the result of a virtual-view query.
	Answer = engine.Answer
	// Plan is a costed candidate execution plan.
	Plan = optimizer.Plan
	// Options tunes the optimizer (rule ablations, search bounds).
	Options = optimizer.Options
	// Query is a parsed conjunctive query.
	Query = cq.Query
	// ExecOptions tunes plan execution (pipelining, worker bound).
	ExecOptions = engine.ExecOptions
	// ExecStats are the measured per-query execution counters.
	ExecStats = engine.ExecStats
	// PlanCache caches prepared plans by query shape (constants
	// parameterized out), so repeated shapes skip Algorithm 1.
	PlanCache = plancache.Cache
	// PlanCacheConfig tunes the prepared-plan cache (its entry bound).
	PlanCacheConfig = plancache.Config
	// PlanCacheCounters are the cache's hit/miss/entry counters.
	PlanCacheCounters = plancache.Counters
	// QueryShape is a query's plan-cache shape: its canonical form and
	// the key the cache files its plans under.
	QueryShape = plancache.Shape
	// ViewManager materializes views and answers matching queries from
	// them (see internal/vanswer).
	ViewManager = vanswer.Manager
	// ViewManagerConfig tunes view answering: storage budget, freshness
	// horizon, stale policy.
	ViewManagerConfig = vanswer.ManagerConfig
	// ViewRewriterConfig is the freshness/stale policy inside a
	// ViewManagerConfig.
	ViewRewriterConfig = vanswer.Config
	// ViewCounters are the view-answering hit/miss/rejection counters.
	ViewCounters = vanswer.Counters
	// WorkloadRecorder records query shapes, frequencies and measured
	// costs (see internal/workload).
	WorkloadRecorder = workload.Recorder
)

// ParseQuery parses the conjunctive-query concrete syntax
// (SELECT … FROM … WHERE … with equality predicates).
func ParseQuery(src string) (*Query, error) { return cq.Parse(src) }

// ShapeOf works out q's plan-cache shape once, for a request that is both
// priced at admission (System.EstimatedPages) and run
// (System.QueryShapeOptsCtx).
func ShapeOf(q *Query) QueryShape { return plancache.ShapeOf(q) }

// ParseNav parses the textual navigation language (the paper's Ulixes
// expressions): "ProfListPage / ProfList -> ToProf [Rank='Full']".
func ParseNav(ws *Scheme, src string) (nalg.Expr, error) { return nalg.ParseNav(ws, src) }

// System is a query system over one web site: the virtual-view engine plus
// everything needed to build plans.
type System struct {
	eng *engine.Engine
}

// Open builds a query system over a site, crawling it once to collect
// statistics. The crawl's page count is the statistics-gathering cost the
// paper assumes is amortized over many queries. The crawl fetches each
// breadth-first level as one batch per page-scheme, up to
// site.DefaultFetchWorkers GETs at a time, so its wall time is about one
// round trip per level per page-scheme, times the batch's pages over the
// workers. A page the site no longer has while a link to it remains is left
// out of the statistics, as navigation leaves it out of answers.
func Open(server Server, ws *Scheme, views *Views) (*System, error) {
	st, _, err := stats.CollectSite(server, ws)
	if err != nil {
		return nil, fmt.Errorf("ulixes: statistics crawl: %w", err)
	}
	return OpenWithStats(server, ws, views, st), nil
}

// OpenWithStats builds a query system with pre-collected statistics.
func OpenWithStats(server Server, ws *Scheme, views *Views, st *Stats) *System {
	return &System{eng: engine.New(views, server, st)}
}

// SetOptions replaces the optimizer options (rule ablations, beam width).
func (s *System) SetOptions(opts Options) { s.eng.Opt.Opts = opts }

// SetExec replaces the execution options (pipelining, worker bound). The
// answer and the measured page accesses are invariant under any setting;
// only wall time changes.
func (s *System) SetExec(opts ExecOptions) { s.eng.Exec = opts }

// Stats returns the site statistics the optimizer costs plans against.
// They are read-only: cached plans are keyed to this value, so editing it
// would let plans costed under other figures be reused.
func (s *System) Stats() *Stats { return s.eng.Opt.Stats }

// EnablePlanCache attaches a prepared-plan cache: queries repeating an
// already-seen shape (same query with different constants) reuse the
// typechecked, rewritten, cost-selected plan instead of re-running
// Algorithm 1. The cache is returned for counter inspection.
func (s *System) EnablePlanCache(cfg PlanCacheConfig) *PlanCache {
	c := plancache.New(cfg)
	s.eng.Plans = c
	return c
}

// PlanCache returns the attached prepared-plan cache, or nil.
func (s *System) PlanCache() *PlanCache { return s.eng.Plans }

// EnableWorkload attaches a workload recorder: every query's canonicalized
// shape and measured cost is kept in a ring of the given capacity (0 = the
// default), as input for benefit-driven view selection.
func (s *System) EnableWorkload(capacity int) *WorkloadRecorder {
	r := workload.NewRecorder(capacity)
	s.eng.Workload = r
	return r
}

// Workload returns the attached workload recorder, or nil.
func (s *System) Workload() *WorkloadRecorder { return s.eng.Workload }

// EnableViewAnswering attaches a view manager: queries a materialized view
// set answers soundly (binding pattern implied, within the freshness
// horizon) skip navigation entirely and report Answer.FromView. The manager
// starts empty — ViewManager.Apply (usually driven by a vselect.Selector
// over the recorded workload) materializes the chosen views.
func (s *System) EnableViewAnswering(cfg ViewManagerConfig) *ViewManager {
	m := vanswer.NewManager(s.eng.Server, s.eng.Views, cfg)
	s.eng.ViewAnswers = m
	return m
}

// ViewManager returns the attached view manager, or nil.
func (s *System) ViewManager() *ViewManager {
	if m, ok := s.eng.ViewAnswers.(*ViewManager); ok {
		return m
	}
	return nil
}

// Query parses, optimizes and executes a conjunctive query against the
// live site, reporting the answer and the measured page accesses.
func (s *System) Query(src string) (*Answer, error) { return s.eng.Query(src) }

// QueryCtx is Query under the caller's context: the request deadline and
// cancellation propagate through the evaluator down to every page access.
func (s *System) QueryCtx(ctx context.Context, src string) (*Answer, error) {
	return s.eng.QueryCtx(ctx, src)
}

// QueryCQ is Query for an already parsed query.
func (s *System) QueryCQ(q *Query) (*Answer, error) { return s.eng.QueryCQ(q) }

// QueryCQCtx is QueryCQ under the caller's context.
func (s *System) QueryCQCtx(ctx context.Context, q *Query) (*Answer, error) {
	return s.eng.QueryCQCtx(ctx, q)
}

// QueryCQOptsCtx is QueryCQCtx with per-query execution options: callers
// that need to vary execution for one request (a server forcing degraded
// mode on deadline-bounded queries) pass their own options without
// disturbing the system-wide configuration.
func (s *System) QueryCQOptsCtx(ctx context.Context, q *Query, opts ExecOptions) (*Answer, error) {
	return s.eng.QueryCQOptsCtx(ctx, q, opts)
}

// QueryShapeOptsCtx is QueryCQOptsCtx for a query whose shape the caller
// has already worked out with ShapeOf.
func (s *System) QueryShapeOptsCtx(ctx context.Context, sh QueryShape, opts ExecOptions) (*Answer, error) {
	return s.eng.QueryShapeOptsCtx(ctx, sh, opts)
}

// ExecOpts returns the system-wide execution options (the baseline a
// per-query override starts from).
func (s *System) ExecOpts() ExecOptions { return s.eng.Exec }

// EstimatedPages returns the prepared-plan cache's page-cost estimate for
// a query's shape, ok=false when there is no plan cache or the shape has
// never been planned. Cost-aware admission consults it before spending
// anything.
func (s *System) EstimatedPages(sh QueryShape) (float64, bool) {
	return s.eng.EstimatedPages(sh)
}

// Plan optimizes a query without executing it, returning the chosen plan
// and all candidates (cheapest first).
func (s *System) Plan(src string) (*optimizer.Result, error) {
	q, err := cq.Parse(src)
	if err != nil {
		return nil, err
	}
	return s.eng.Opt.Optimize(q)
}

// Explain returns a human-readable report for a query: the chosen plan as a
// tree (in the style of the paper's Figures 2–4), its estimated cost, and
// the costs of the alternatives considered.
func (s *System) Explain(src string) (string, error) {
	res, err := s.Plan(src)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "chosen plan (estimated cost %.1f page accesses):\n", res.Best.Cost)
	sb.WriteString(nalg.Explain(res.Best.Expr))
	fmt.Fprintf(&sb, "\n%d candidate plans considered:\n", len(res.Candidates))
	for i, c := range res.Candidates {
		if i >= 10 {
			fmt.Fprintf(&sb, "  … and %d more\n", len(res.Candidates)-i)
			break
		}
		fmt.Fprintf(&sb, "  %8.1f  %s\n", c.Cost, c.Expr)
	}
	return sb.String(), nil
}

// Relation is a (nested) relation — the shape of query results.
type Relation = nested.Relation

// Execute runs an explicit navigational plan (for experiments comparing
// strategies), returning the relation and the measured page downloads.
func (s *System) Execute(plan nalg.Expr) (*Relation, int, error) {
	return s.eng.Execute(plan)
}

// ExecuteOpts runs an explicit navigational plan under explicit execution
// options, returning the relation and the full execution counters.
func (s *System) ExecuteOpts(plan nalg.Expr, opts ExecOptions) (*Relation, ExecStats, error) {
	return s.eng.ExecuteOpts(plan, opts)
}

// Materialize crawls the site into a local materialized view (§8) and
// returns a system answering queries from it with lazy maintenance.
func (s *System) Materialize() (*MatSystem, error) {
	store, err := engine.Materialize(s.eng.Server, s.eng.Views.Scheme)
	if err != nil {
		return nil, err
	}
	eng := engine.New(s.eng.Views, s.eng.Server, s.eng.Opt.Stats)
	eng.Exec.Cache = store
	return &MatSystem{eng: eng}, nil
}

// MatSystem answers queries from a materialized view, maintaining it as a
// side effect (§8): the virtual engine over the view's page store. An
// answer's Exec.LightConnections and Exec.Pages are the query's light
// connections and downloads, and Exec.Updates the changed pages it
// re-downloaded.
type MatSystem struct {
	eng *engine.Engine
}

// Query evaluates a conjunctive query on the materialized view, verifying
// involved pages with light connections and downloading only changed pages.
func (m *MatSystem) Query(src string) (*Answer, error) { return m.eng.Query(src) }

// SetExec replaces the execution options (pipelining, worker bound); the
// view's store stays the one queries run on. The query's session keeps
// light connections and downloads identical under any setting.
func (m *MatSystem) SetExec(opts ExecOptions) {
	opts.Cache = m.eng.Exec.Cache
	m.eng.Exec = opts
}

// Store exposes the view's page store (for maintenance operations like
// ProcessMissing and Refresh).
func (m *MatSystem) Store() *pagecache.Cache { return m.eng.Exec.Cache }
