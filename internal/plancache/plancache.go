// Package plancache caches prepared query plans across queries of the same
// shape. Algorithm 1 — translate, rewrite under Rules 1–9, cost, select —
// is by far the most expensive in-process step of a warm query, yet its
// outcome does not depend on the constant values of the query's selections:
// the cost model charges a constant selection the selectivity 1/c_A of its
// *attribute*, whatever the constant. So the cache keys plans by the
// query's canonicalized shape (constants parameterized out), optimizes the
// parameterized query once, and binds the cached plan to each query's
// constants by substituting them back.
//
// A cache entry carries the rest of its shape's work too. Which candidate
// is best can depend on the constants only through the rendering
// tie-break among equal-cost plans, and Prepare works out once which tied
// candidates that can happen to (usually none), so a hit binds one plan,
// not every candidate, and sorts nothing. The best plan's execution work —
// the typing gates, the hash-join build sides and the columns each stage
// keeps, see nalg.Prepared — is done once per entry too.
//
// A cached plan was costed against one statistics value, and the key
// holds that value's pointer: statistics are never edited under a running
// planner, so a refresh is a new *stats.Stats, whose requests miss and plan
// afresh while the entries of the old value age out through the LRU.
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

// DefaultMaxEntries is Config.MaxEntries' zero value.
const DefaultMaxEntries = 256

// Config tunes the cache.
type Config struct {
	// MaxEntries bounds the number of cached plan shapes; the least
	// recently used entry is evicted beyond it (0 = DefaultMaxEntries).
	MaxEntries int
}

// Counters are the cache's cumulative observability counters.
type Counters struct {
	// Hits counts queries answered from a cached plan (specialization
	// only — no parse, typecheck, rewrite or costing).
	Hits uint64
	// Misses counts queries that ran the full optimizer (first sight of a
	// shape under a statistics value and scope, a shape evicted since, or
	// an uncacheable query).
	Misses uint64
	// Entries is the current number of cached shapes.
	Entries int
}

// entry is one cached shape: the parameterized optimizer result and the
// work done on it once for every query of the shape.
type entry struct {
	res *optimizer.Result
	// ties are the candidates that cost as much as res.Best and whose
	// tie-break against it depends on the constants (see tieDependsOnParams),
	// in candidate order; when empty, res.Best is best for any constants.
	ties []optimizer.Plan
	// exec is the execution work of the parameterized candidate execOf,
	// from the compile function of the request that planned the shape (nil
	// when it had none).
	exec    *nalg.Prepared
	execOf  nalg.Expr
	lastUse uint64
}

// key identifies a cached shape: the statistics value its plans were costed
// against, the optimizer scope, and the canonical query.
type key struct {
	st    *stats.Stats
	scope string
	shape string
}

// flight is one run of the optimizer on a shape that other requests for
// the same shape wait for instead of planning it again. e and err are
// written before done is closed.
type flight struct {
	done chan struct{}
	e    *entry
	err  error
}

// Bound is the cache's answer for one query: its plan bound to its
// constants.
type Bound struct {
	// Result is the optimizer result. Best is always bound to the query's
	// constants. Candidates is filled only for the request that ran the
	// optimizer: a request answered from the cache planned nothing, and
	// binding every alternative would cost more than running the plan.
	Result *optimizer.Result
	// Cached reports that this request skipped the planning pipeline — a
	// stored plan or another request's planning answered it.
	Cached bool
	// Exec is Best's execution work from Bind's compile function, done once
	// per cached shape and shared by every query bound to it (nil without
	// a compile function).
	Exec *nalg.Prepared
}

// Cache is a prepared-plan cache. It is safe for concurrent use.
type Cache struct {
	cfg Config

	mu      sync.Mutex
	entries map[key]*entry  // guarded by mu
	flights map[key]*flight // shapes being planned right now; guarded by mu
	clock   uint64          // logical LRU clock; guarded by mu
	hits    uint64          // guarded by mu
	misses  uint64          // guarded by mu
}

// New creates a cache.
func New(cfg Config) *Cache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	return &Cache{cfg: cfg, entries: make(map[key]*entry), flights: make(map[key]*flight)}
}

// Counters returns a snapshot of the cache's counters.
func (c *Cache) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Counters{Hits: c.hits, Misses: c.misses, Entries: len(c.entries)}
}

// Shape is a query's canonical form: the query, its constants
// parameterized out (see Canonicalize), and the rendered key the cache
// files its plans under. Working it out is the cache's per-request work; a
// request that is both priced (Peek) and planned (Bind) computes it once,
// with ShapeOf, and hands the same Shape to both.
type Shape struct {
	q      *cq.Query
	canon  *cq.Query // nil: a constant holds NUL and q bypasses the cache
	params []string
	key    string
}

// ShapeOf canonicalizes q and renders its key.
func ShapeOf(q *cq.Query) Shape {
	canon, params, ok := Canonicalize(q)
	if !ok {
		return Shape{q: q}
	}
	return Shape{q: q, canon: canon, params: params, key: canon.String()}
}

// Query returns the query the shape was worked out for.
func (sh Shape) Query() *cq.Query { return sh.q }

// Peek returns the estimated page cost of the cached plan for the shape
// under st and scope — the entry Bind would hit — without optimizing on a
// miss, counting a hit, or refreshing LRU order. Admission control uses it
// as a free advisory estimate before deciding whether the query fits the
// remaining capacity: a shape the cache has not planned under these
// statistics returns ok=false and the caller treats the cost as unknown.
func (c *Cache) Peek(sh Shape, st *stats.Stats, scope string) (cost float64, ok bool) {
	if sh.canon == nil {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key{st, scope, sh.key}]
	if e == nil {
		return 0, false
	}
	return e.res.Best.Cost, true
}

// Prepare returns an optimizer result for q: from the cache when a plan
// for q's shape under st and scope is present, otherwise by running
// optimize on the parameterized shape and caching the outcome. It is Bind
// without execution work.
func (c *Cache) Prepare(q *cq.Query, st *stats.Stats, scope string, optimize func(*cq.Query) (*optimizer.Result, error)) (res *optimizer.Result, cached bool, err error) {
	b, err := c.Bind(ShapeOf(q), st, scope, optimize, nil)
	return b.Result, b.Cached, err
}

// Bind returns the plan of the shape's query, bound to its constants: from
// the cache when a plan for the shape under st and scope is present, or by
// running optimize on the parameterized shape and caching the outcome. st
// is the statistics value optimize costs against, which must not change
// while the cache holds plans for it; scope distinguishes plans produced
// under different optimizer options. Concurrent requests for one uncached
// shape plan it once: the first runs optimize and the others wait for its
// result, and count as hits. compile, when non-nil, does the best plan's
// execution work; the planning request runs it once for the shape and
// every later query of the shape shares the outcome. A compile error fails
// the planning request and its waiters and caches nothing.
func (c *Cache) Bind(sh Shape, st *stats.Stats, scope string, optimize func(*cq.Query) (*optimizer.Result, error), compile func(nalg.Expr) (*nalg.Prepared, error)) (Bound, error) {
	canon, params := sh.canon, sh.params
	if canon == nil {
		// A constant collides with the sentinel alphabet; plan directly.
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		r, err := optimize(sh.q)
		if err != nil {
			return Bound{}, err
		}
		b := Bound{Result: r}
		if compile != nil {
			b.Exec, err = compile(r.Best.Expr)
		}
		return b, err
	}
	k := key{st, scope, sh.key}

	c.mu.Lock()
	if e := c.entries[k]; e != nil {
		c.hits++
		c.clock++
		e.lastUse = c.clock
		c.mu.Unlock()
		return e.bind(params, compile)
	}
	if f := c.flights[k]; f != nil {
		c.hits++
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			// Nothing was planned for this request after all.
			c.mu.Lock()
			c.hits--
			c.misses++
			c.mu.Unlock()
			return Bound{}, f.err
		}
		return f.e.bind(params, compile)
	}
	f := &flight{done: make(chan struct{}), err: errPlanningAbandoned}
	c.flights[k] = f
	c.misses++
	c.mu.Unlock()
	// Whatever happens to optimize, the waiters are released.
	defer func() {
		c.mu.Lock()
		delete(c.flights, k)
		c.mu.Unlock()
		close(f.done)
	}()

	// Optimize the parameterized shape, so the cached trees carry the
	// sentinels and any constants can be substituted on later hits.
	res, err := optimize(canon)
	if err != nil {
		f.err = err
		return Bound{}, err
	}
	e := &entry{res: res, ties: constantTies(res.Candidates)}
	out := Bound{Result: specializeResult(res, params)}
	if compile != nil {
		// The work is done on the candidate hits will bind, so it is theirs
		// whatever the planning request's own sort put first; a Prepared
		// refuses to run a plan of another shape.
		e.execOf = e.best(params).Expr
		if e.exec, err = compile(substExpr(e.execOf, params)); err != nil {
			f.err = err
			return Bound{}, err
		}
		out.Exec = e.exec
	}
	f.e, f.err = e, nil
	c.mu.Lock()
	c.clock++
	e.lastUse = c.clock
	c.entries[k] = e
	for len(c.entries) > c.cfg.MaxEntries {
		var lruKey key
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
	return out, nil
}

// bind answers one query of the entry's shape: the best candidate for its
// constants, bound to them, with the entry's execution work when it was
// done for that candidate.
func (e *entry) bind(params []string, compile func(nalg.Expr) (*nalg.Prepared, error)) (Bound, error) {
	best := e.best(params)
	b := Bound{Cached: true, Exec: e.exec}
	if best.Expr != e.execOf {
		b.Exec = nil
	}
	best.Expr = substExpr(best.Expr, params)
	b.Result = &optimizer.Result{Best: best, PlansConsidered: e.res.PlansConsidered}
	if compile != nil && b.Exec == nil {
		var err error
		if b.Exec, err = compile(best.Expr); err != nil {
			return Bound{}, err
		}
	}
	return b, nil
}

// best returns the parameterized candidate that is best once params are
// substituted: what planning the concrete query would have put first.
// Only the tied candidates whose order can change are bound and rendered.
func (e *entry) best(params []string) optimizer.Plan {
	best := e.res.Best
	if len(e.ties) == 0 {
		return best
	}
	lowest := substExpr(best.Expr, params).String()
	for _, t := range e.ties {
		if r := substExpr(t.Expr, params).String(); r < lowest {
			best, lowest = t, r
		}
	}
	return best
}

// constantTies returns the candidates after the first (cands is sorted by
// optimizer.ComparePlans) that cost as much as it and whose tie-break
// against it depends on the constants.
func constantTies(cands []optimizer.Plan) []optimizer.Plan {
	var ties []optimizer.Plan
	first := cands[0].Expr.String()
	for _, c := range cands[1:] {
		if c.Cost != cands[0].Cost {
			break
		}
		if tieDependsOnParams(first, c.Expr.String()) {
			ties = append(ties, c)
		}
	}
	return ties
}

// tieDependsOnParams reports whether substituting constants for the
// placeholders of two renderings can change how they compare. Up to their
// first difference the renderings are equal, placeholders included, so
// they stay equal after substitution; if that difference lies outside every
// placeholder, the differing bytes (or the end of the shorter rendering)
// survive substitution unchanged and decide the comparison as before.
func tieDependsOnParams(a, b string) bool {
	p := 0
	for p < len(a) && p < len(b) && a[p] == b[p] {
		p++
	}
	return inPlaceholder(a, p) || inPlaceholder(b, p)
}

// inPlaceholder reports whether byte p of a rendering lies inside a
// placeholder.
func inPlaceholder(s string, p int) bool {
	for i := 0; i < len(s) && i <= p; {
		n, ok := placeholderAt(s, i)
		if ok && p < i+n {
			return true
		}
		if ok {
			i += n
		} else {
			i++
		}
	}
	return false
}

// placeholderAt reports whether a placeholder starts at byte i of s, and
// its length.
func placeholderAt(s string, i int) (int, bool) {
	if s[i] != '\x00' {
		return 0, false
	}
	end := strings.IndexByte(s[i+1:], '\x00')
	if end < 0 {
		return 0, false
	}
	n := end + 2
	if _, ok := sentinelIndex(s[i : i+n]); !ok {
		return 0, false
	}
	return n, true
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
