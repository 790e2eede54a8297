// Package plancache caches prepared query plans across queries of the same
// shape. Algorithm 1 — translate, rewrite under Rules 1–9, cost, select —
// is by far the most expensive in-process step of a warm query, yet its
// outcome does not depend on the constant values of the query's selections:
// the cost model charges a constant selection the selectivity 1/c_A of its
// *attribute*, whatever the constant. So the cache keys plans by the
// query's canonicalized shape (constants parameterized out), optimizes the
// parameterized query once, and specializes the cached plan by
// substituting the actual constants back — a pure tree rebuild, orders of
// magnitude cheaper than re-planning.
//
// Cached plans embed the site statistics they were costed against. Before
// reuse the current statistics are compared with the entry's snapshot;
// entries whose statistics drifted past a configurable relative threshold
// are invalidated and re-planned, since the cost ranking that selected the
// plan may no longer hold.
package plancache

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"sync"

	"ulixes/internal/cq"
	"ulixes/internal/nalg"
	"ulixes/internal/nested"
	"ulixes/internal/optimizer"
	"ulixes/internal/stats"
)

// Defaults for Config's zero values.
const (
	DefaultMaxEntries     = 256
	DefaultDriftThreshold = 0.25
)

// Config tunes the cache.
type Config struct {
	// MaxEntries bounds the number of cached plan shapes; the least
	// recently used entry is evicted beyond it (0 = DefaultMaxEntries).
	MaxEntries int
	// DriftThreshold is the maximum relative statistics drift (see
	// stats.DriftFrom) a cached plan survives; entries past it are
	// invalidated (0 = DefaultDriftThreshold; negative disables
	// invalidation).
	DriftThreshold float64
}

// Counters are the cache's cumulative observability counters.
type Counters struct {
	// Hits counts queries answered from a cached plan (specialization
	// only — no parse, typecheck, rewrite or costing).
	Hits uint64
	// Misses counts queries that ran the full optimizer (first sight of a
	// shape, post-invalidation re-planning, or an uncacheable query).
	Misses uint64
	// Invalidations counts entries dropped because statistics drifted
	// past the threshold.
	Invalidations uint64
	// Entries is the current number of cached shapes.
	Entries int
}

type entry struct {
	res     *optimizer.Result
	snap    stats.Snapshot
	lastUse uint64
}

// flight is one run of the optimizer on a shape that other requests for
// the same shape wait for instead of planning it again. res and err are
// written before done is closed.
type flight struct {
	done chan struct{}
	res  *optimizer.Result
	err  error
}

// Cache is a prepared-plan cache. It is safe for concurrent use.
type Cache struct {
	cfg Config

	mu      sync.Mutex
	entries map[string]*entry  // guarded by mu
	flights map[string]*flight // shapes being planned right now; guarded by mu
	clock   uint64             // logical LRU clock; guarded by mu
	hits    uint64             // guarded by mu
	misses  uint64             // guarded by mu
	invals  uint64             // guarded by mu
}

// New creates a cache.
func New(cfg Config) *Cache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.DriftThreshold == 0 {
		cfg.DriftThreshold = DefaultDriftThreshold
	}
	return &Cache{cfg: cfg, entries: make(map[string]*entry), flights: make(map[string]*flight)}
}

// Counters returns a snapshot of the cache's counters.
func (c *Cache) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Counters{Hits: c.hits, Misses: c.misses, Invalidations: c.invals, Entries: len(c.entries)}
}

// Peek returns the estimated page cost of the cached plan for q's shape,
// without optimizing on a miss, counting a hit, or refreshing LRU order.
// Admission control uses it as a free advisory estimate before deciding
// whether the query fits the remaining capacity: a shape the cache has
// never planned returns ok=false and the caller treats the cost as
// unknown. Drift is deliberately not re-checked here — a slightly stale
// estimate is still the right order of magnitude for a capacity gate, and
// Prepare re-validates before the plan actually runs.
func (c *Cache) Peek(q *cq.Query, scope string) (cost float64, ok bool) {
	canon, _, okc := Canonicalize(q)
	if !okc {
		return 0, false
	}
	key := scope + "\n" + canon.String()
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		return 0, false
	}
	return e.res.Best.Cost, true
}

// Prepare returns an optimizer result for q: from the cache when a plan
// for q's shape is present and its statistics snapshot has not drifted,
// otherwise by running optimize on the parameterized shape and caching the
// outcome. Concurrent requests for one uncached shape plan it once: the
// first runs optimize and the others wait for its result. cached reports
// that this request skipped the planning pipeline — a stored plan or
// another request's planning answered it — and such requests count as
// hits. scope distinguishes plans produced under different optimizer
// options.
func (c *Cache) Prepare(q *cq.Query, st *stats.Stats, scope string, optimize func(*cq.Query) (*optimizer.Result, error)) (res *optimizer.Result, cached bool, err error) {
	canon, params, ok := Canonicalize(q)
	if !ok {
		// A constant collides with the sentinel alphabet; plan directly.
		r, err := optimize(q)
		return r, false, err
	}
	key := scope + "\n" + canon.String()

	c.mu.Lock()
	e := c.entries[key]
	if e != nil && c.cfg.DriftThreshold >= 0 && st != nil && st.DriftFrom(e.snap) > c.cfg.DriftThreshold {
		delete(c.entries, key)
		c.invals++
		e = nil
	}
	if e != nil {
		c.hits++
		c.clock++
		e.lastUse = c.clock
		r := e.res
		c.mu.Unlock()
		return specializeResult(r, params), true, nil
	}
	if f := c.flights[key]; f != nil {
		c.hits++
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			// Nothing was planned for this request after all.
			c.mu.Lock()
			c.hits--
			c.misses++
			c.mu.Unlock()
			return nil, false, f.err
		}
		return specializeResult(f.res, params), true, nil
	}
	f := &flight{done: make(chan struct{}), err: errPlanningAbandoned}
	c.flights[key] = f
	c.misses++
	c.mu.Unlock()
	// Whatever happens to optimize, the waiters are released.
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
	}()

	// Optimize the parameterized shape, so the cached trees carry the
	// sentinels and any constants can be substituted on later hits.
	f.res, f.err = optimize(canon)
	if f.err != nil {
		return nil, false, f.err
	}
	var snap stats.Snapshot
	if st != nil {
		snap = st.Snapshot()
	}
	c.mu.Lock()
	c.clock++
	c.entries[key] = &entry{res: f.res, snap: snap, lastUse: c.clock}
	for len(c.entries) > c.cfg.MaxEntries {
		var lruKey string
		var lru uint64
		first := true
		for k, e := range c.entries {
			if first || e.lastUse < lru {
				lruKey, lru, first = k, e.lastUse, false
			}
		}
		delete(c.entries, lruKey)
	}
	c.mu.Unlock()
	return specializeResult(f.res, params), false, nil
}

// errPlanningAbandoned is what waiters get when the request planning their
// shape never returned from optimize (it panicked).
var errPlanningAbandoned = errors.New("plancache: planning of this query shape did not complete")

// sentinel returns the placeholder value for the i-th constant. The NUL
// framing cannot appear in parsed query text, so placeholders never
// collide with real constants (Canonicalize still verifies).
func sentinel(i int) string {
	return "\x00?" + strconv.Itoa(i) + "\x00"
}

// sentinelIndex reports whether s is a placeholder and for which ordinal.
func sentinelIndex(s string) (int, bool) {
	if len(s) < 4 || s[0] != '\x00' || s[1] != '?' || s[len(s)-1] != '\x00' {
		return 0, false
	}
	n, err := strconv.Atoi(s[2 : len(s)-1])
	if err != nil {
		return 0, false
	}
	return n, true
}

// Canonicalize parameterizes a query's shape: each constant selection
// value is replaced with an ordinal placeholder and returned in params.
// ok is false when a constant contains the placeholder alphabet (NUL),
// in which case the query must bypass the cache.
func Canonicalize(q *cq.Query) (canon *cq.Query, params []string, ok bool) {
	out := *q
	out.Consts = make([]cq.ConstSel, len(q.Consts))
	params = make([]string, len(q.Consts))
	for i, cs := range q.Consts {
		if strings.ContainsRune(cs.Val, '\x00') {
			return nil, nil, false
		}
		params[i] = cs.Val
		cs.Val = sentinel(i)
		out.Consts[i] = cs
	}
	return &out, params, true
}

// specializeResult substitutes the actual constants into every candidate
// of a cached (parameterized) result, re-sorting with the optimizer's
// comparator so tie-breaks match what planning the concrete query would
// have produced. The cached trees are never mutated: substitution rebuilds
// the spine above each changed node and shares everything else.
func specializeResult(r *optimizer.Result, params []string) *optimizer.Result {
	if len(params) == 0 {
		return r
	}
	cands := make([]optimizer.Plan, len(r.Candidates))
	for i, p := range r.Candidates {
		p.Expr = substExpr(p.Expr, params)
		cands[i] = p
	}
	slices.SortStableFunc(cands, optimizer.ComparePlans)
	return &optimizer.Result{Best: cands[0], Candidates: cands, PlansConsidered: r.PlansConsidered}
}

// substExpr returns e with placeholder constants replaced by their
// parameter values, sharing unchanged subtrees.
func substExpr(e nalg.Expr, params []string) nalg.Expr {
	switch x := e.(type) {
	case *nalg.Select:
		in := substExpr(x.In, params)
		pred, changed := substPred(x.Pred, params)
		if in == x.In && !changed {
			return e
		}
		return &nalg.Select{In: in, Pred: pred}
	case *nalg.Project:
		if in := substExpr(x.In, params); in != x.In {
			return &nalg.Project{In: in, Cols: x.Cols}
		}
	case *nalg.Rename:
		if in := substExpr(x.In, params); in != x.In {
			return &nalg.Rename{In: in, Map: x.Map}
		}
	case *nalg.Unnest:
		if in := substExpr(x.In, params); in != x.In {
			return &nalg.Unnest{In: in, Attr: x.Attr}
		}
	case *nalg.Follow:
		if in := substExpr(x.In, params); in != x.In {
			return &nalg.Follow{In: in, Link: x.Link, Target: x.Target, Alias: x.Alias}
		}
	case *nalg.Join:
		l, r := substExpr(x.L, params), substExpr(x.R, params)
		if l != x.L || r != x.R {
			return &nalg.Join{L: l, R: r, Conds: x.Conds}
		}
	}
	return e
}

// substPred rebuilds a predicate with placeholders replaced; changed
// reports whether any substitution happened.
func substPred(p nested.Predicate, params []string) (nested.Predicate, bool) {
	switch q := p.(type) {
	case nested.ConstPred:
		tv, ok := q.Val.(nested.TextValue)
		if !ok {
			return p, false
		}
		i, ok := sentinelIndex(string(tv))
		if !ok || i >= len(params) {
			return p, false
		}
		q.Val = nested.TextValue(params[i])
		return q, true
	case nested.AndPred:
		out := make(nested.AndPred, len(q))
		changed := false
		for i, sub := range q {
			s, ch := substPred(sub, params)
			out[i] = s
			changed = changed || ch
		}
		if !changed {
			return p, false
		}
		return out, true
	default:
		return p, false
	}
}
