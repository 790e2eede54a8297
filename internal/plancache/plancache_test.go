package plancache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ulixes/internal/cq"
	"ulixes/internal/nalg"
	"ulixes/internal/nested"
	"ulixes/internal/optimizer"
	"ulixes/internal/stats"
)

func parse(t *testing.T, src string) *cq.Query {
	t.Helper()
	q, err := cq.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestSentinelRoundTrip(t *testing.T) {
	for _, i := range []int{0, 1, 7, 42, 1000} {
		s := sentinel(i)
		got, ok := sentinelIndex(s)
		if !ok || got != i {
			t.Errorf("sentinelIndex(sentinel(%d)) = %d, %v", i, got, ok)
		}
	}
	for _, s := range []string{"", "Full", "\x00?", "\x00?x\x00", "?3", "\x00?3"} {
		if _, ok := sentinelIndex(s); ok {
			t.Errorf("sentinelIndex(%q) unexpectedly ok", s)
		}
	}
}

func TestCanonicalize(t *testing.T) {
	q := parse(t, "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full' AND p.Email = 'x@y'")
	canon, params, ok := Canonicalize(q)
	if !ok {
		t.Fatal("Canonicalize not ok")
	}
	if len(params) != 2 || params[0] != "Full" || params[1] != "x@y" {
		t.Fatalf("params = %v", params)
	}
	for i, cs := range canon.Consts {
		if n, ok := sentinelIndex(cs.Val); !ok || n != i {
			t.Errorf("const %d = %q, want sentinel %d", i, cs.Val, i)
		}
	}
	// The original query is untouched.
	if q.Consts[0].Val != "Full" || q.Consts[1].Val != "x@y" {
		t.Fatalf("Canonicalize mutated its argument: %v", q.Consts)
	}
	// Two queries differing only in constants canonicalize identically.
	q2 := parse(t, "SELECT p.PName FROM Professor p WHERE p.Rank = 'Assistant' AND p.Email = 'a@b'")
	canon2, _, _ := Canonicalize(q2)
	if canon.String() != canon2.String() {
		t.Errorf("canonical forms differ:\n%s\n%s", canon, canon2)
	}
	// Queries with different shapes do not.
	q3 := parse(t, "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'")
	canon3, _, _ := Canonicalize(q3)
	if canon.String() == canon3.String() {
		t.Error("different shapes canonicalized to the same form")
	}
}

func TestCanonicalizeNULBypass(t *testing.T) {
	q := parse(t, "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'")
	q.Consts[0].Val = "evil\x00value"
	if _, _, ok := Canonicalize(q); ok {
		t.Fatal("Canonicalize accepted a NUL-bearing constant")
	}
	// Prepare must still answer, bypassing the cache.
	c := New(Config{})
	res, cached, err := c.Prepare(q, stats.New(), "", fakeOptimize(nil))
	if err != nil || cached || res == nil {
		t.Fatalf("bypass Prepare = (%v, %v, %v)", res, cached, err)
	}
	if n := c.Counters(); n.Entries != 0 || n.Hits != 0 {
		t.Fatalf("bypass should not populate the cache: %+v", n)
	}
}

// fakeOptimize returns an optimize function producing a one-candidate
// result whose plan selects the query's first constant, and records the
// queries it was called with.
func fakeOptimize(calls *[]string) func(*cq.Query) (*optimizer.Result, error) {
	return func(q *cq.Query) (*optimizer.Result, error) {
		if calls != nil {
			*calls = append(*calls, q.String())
		}
		val := "none"
		if len(q.Consts) > 0 {
			val = q.Consts[0].Val
		}
		expr := nalg.Expr(&nalg.Select{
			In:   &nalg.EntryScan{Scheme: "P", URL: "u", Alias: "p"},
			Pred: nested.ConstPred{Attr: "p.A", Op: nested.OpEq, Val: nested.TextValue(val)},
		})
		p := optimizer.Plan{Expr: expr, Cost: 1}
		return &optimizer.Result{Best: p, Candidates: []optimizer.Plan{p}, PlansConsidered: 1}, nil
	}
}

func TestPrepareHitSpecializes(t *testing.T) {
	c := New(Config{})
	st := stats.New()
	var calls []string
	opt := fakeOptimize(&calls)

	q1 := parse(t, "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'")
	r1, cached, err := c.Prepare(q1, st, "scope", opt)
	if err != nil || cached {
		t.Fatalf("first Prepare: cached=%v err=%v", cached, err)
	}
	q2 := parse(t, "SELECT p.PName FROM Professor p WHERE p.Rank = 'Assistant'")
	r2, cached, err := c.Prepare(q2, st, "scope", opt)
	if err != nil || !cached {
		t.Fatalf("second Prepare: cached=%v err=%v", cached, err)
	}
	if len(calls) != 1 {
		t.Fatalf("optimize ran %d times, want 1", len(calls))
	}
	// Each result carries its own constant, not the sentinel.
	wantConst := func(r *optimizer.Result, want string) {
		t.Helper()
		sel := r.Best.Expr.(*nalg.Select)
		got := string(sel.Pred.(nested.ConstPred).Val.(nested.TextValue))
		if got != want {
			t.Errorf("specialized constant = %q, want %q", got, want)
		}
	}
	wantConst(r1, "Full")
	wantConst(r2, "Assistant")
	if n := c.Counters(); n.Hits != 1 || n.Misses != 1 || n.Entries != 1 {
		t.Fatalf("counters = %+v", n)
	}
	// A different scope misses even for the same shape.
	if _, cached, _ := c.Prepare(q1, st, "other-scope", opt); cached {
		t.Fatal("scope change should miss")
	}
}

func TestPrepareDriftInvalidation(t *testing.T) {
	c := New(Config{DriftThreshold: 0.25})
	st := stats.New()
	st.Card["P"] = 100
	q := parse(t, "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'")
	opt := fakeOptimize(nil)

	if _, cached, _ := c.Prepare(q, st, "", opt); cached {
		t.Fatal("cold Prepare hit")
	}
	st.Card["P"] = 110 // 10% drift: under threshold
	if _, cached, _ := c.Prepare(q, st, "", opt); !cached {
		t.Fatal("10% drift should still hit")
	}
	st.Card["P"] = 200 // 100% drift vs snapshot at 100
	if _, cached, _ := c.Prepare(q, st, "", opt); cached {
		t.Fatal("100% drift should invalidate")
	}
	if n := c.Counters(); n.Invalidations != 1 || n.Misses != 2 || n.Hits != 1 {
		t.Fatalf("counters = %+v", n)
	}
	// Negative threshold disables invalidation entirely.
	c2 := New(Config{DriftThreshold: -1})
	st2 := stats.New()
	st2.Card["P"] = 100
	c2.Prepare(q, st2, "", opt)
	st2.Card["P"] = 1e9
	if _, cached, _ := c2.Prepare(q, st2, "", opt); !cached {
		t.Fatal("negative threshold should never invalidate")
	}
}

func TestPrepareLRUEviction(t *testing.T) {
	c := New(Config{MaxEntries: 2})
	st := stats.New()
	opt := fakeOptimize(nil)
	shape := func(i int) *cq.Query {
		return parse(t, fmt.Sprintf("SELECT p.A%d FROM Professor p", i))
	}
	c.Prepare(shape(1), st, "", opt)
	c.Prepare(shape(2), st, "", opt)
	c.Prepare(shape(1), st, "", opt) // touch 1: 2 is now LRU
	c.Prepare(shape(3), st, "", opt) // evicts 2
	if n := c.Counters(); n.Entries != 2 {
		t.Fatalf("entries = %d, want 2", n.Entries)
	}
	if _, cached, _ := c.Prepare(shape(1), st, "", opt); !cached {
		t.Fatal("shape 1 should have survived eviction")
	}
	if _, cached, _ := c.Prepare(shape(2), st, "", opt); cached {
		t.Fatal("shape 2 should have been evicted")
	}
}

func TestSubstExprSharesUnchangedSubtrees(t *testing.T) {
	scan := &nalg.EntryScan{Scheme: "P", URL: "u", Alias: "p"}
	inner := nalg.Expr(&nalg.Project{In: scan, Cols: []string{"p.A"}})
	sel := &nalg.Select{
		In:   inner,
		Pred: nested.ConstPred{Attr: "p.A", Op: nested.OpEq, Val: nested.TextValue(sentinel(0))},
	}
	out := substExpr(sel, []string{"Full"})
	got := out.(*nalg.Select)
	if got == sel {
		t.Fatal("substExpr returned the cached node despite a substitution")
	}
	if got.In != inner {
		t.Error("unchanged subtree was rebuilt instead of shared")
	}
	if v := string(got.Pred.(nested.ConstPred).Val.(nested.TextValue)); v != "Full" {
		t.Errorf("substituted value = %q", v)
	}
	// The cached tree is untouched.
	if v := string(sel.Pred.(nested.ConstPred).Val.(nested.TextValue)); v != sentinel(0) {
		t.Errorf("cached tree mutated: %q", v)
	}
	// No sentinel anywhere: identical expression returned as-is.
	if substExpr(inner, []string{"Full"}) != inner {
		t.Error("sentinel-free tree should be returned unchanged")
	}
}

// TestConcurrentMissesPlanOnce: eight requests for one shape nobody has
// planned yet run the optimizer once; the seven that arrive while it runs
// wait for its result, each gets its own constant back, and they count as
// hits.
func TestConcurrentMissesPlanOnce(t *testing.T) {
	c := New(Config{})
	st := stats.New()
	var calls atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	inner := fakeOptimize(nil)
	opt := func(q *cq.Query) (*optimizer.Result, error) {
		if calls.Add(1) == 1 {
			close(entered)
		}
		<-release
		return inner(q)
	}
	const n = 8
	type outcome struct {
		res    *optimizer.Result
		cached bool
		err    error
	}
	out := make([]outcome, n)
	var wg sync.WaitGroup
	prepare := func(i int) {
		defer wg.Done()
		q, err := cq.Parse(fmt.Sprintf("SELECT p.PName FROM Professor p WHERE p.Rank = 'r%d'", i))
		if err != nil {
			out[i].err = err
			return
		}
		out[i].res, out[i].cached, out[i].err = c.Prepare(q, st, "scope", opt)
	}
	wg.Add(n)
	go prepare(0)
	<-entered
	for i := 1; i < n; i++ {
		go prepare(i)
	}
	// The planner is held until the other seven have joined its flight (or
	// one of them has started planning too).
	for c.Counters().Hits < n-1 && calls.Load() == 1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("optimize ran %d times, want 1", got)
	}
	if cn := c.Counters(); cn.Misses != 1 || cn.Hits != n-1 || cn.Entries != 1 {
		t.Errorf("counters = %+v, want 1 miss, %d hits, 1 entry", cn, n-1)
	}
	for i, o := range out {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		if o.cached != (i != 0) {
			t.Errorf("request %d: cached = %v", i, o.cached)
		}
		got := string(o.res.Best.Expr.(*nalg.Select).Pred.(nested.ConstPred).Val.(nested.TextValue))
		if want := fmt.Sprintf("r%d", i); got != want {
			t.Errorf("request %d got the plan for %q", i, got)
		}
	}
}

// TestFailedFlightReleasesWaiters: when the request planning a shape fails
// or panics, the requests waiting on it get an error, not a hang, and the
// shape can be planned again.
func TestFailedFlightReleasesWaiters(t *testing.T) {
	c := New(Config{})
	st := stats.New()
	q := parse(t, "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'")
	entered, release := make(chan struct{}), make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		_, _, _ = c.Prepare(q, st, "", func(*cq.Query) (*optimizer.Result, error) {
			close(entered)
			<-release
			panic("planner bug")
		})
	}()
	<-entered
	waiter := make(chan error, 1)
	go func() {
		_, _, err := c.Prepare(q, st, "", fakeOptimize(nil))
		waiter <- err
	}()
	for c.Counters().Hits < 1 {
		runtime.Gosched()
	}
	close(release)
	if r := <-leader; r == nil {
		t.Error("the planner's panic must reach its own caller")
	}
	if err := <-waiter; err == nil {
		t.Error("the waiter must be told planning did not complete")
	}
	if cn := c.Counters(); cn.Hits != 0 || cn.Misses != 2 || cn.Entries != 0 {
		t.Errorf("counters = %+v, want 2 misses and nothing cached", cn)
	}
	if _, cached, err := c.Prepare(q, st, "", fakeOptimize(nil)); err != nil || cached {
		t.Errorf("planning the shape again: cached=%v err=%v", cached, err)
	}
}
