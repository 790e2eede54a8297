package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ulixes"
	"ulixes/internal/pagecache"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run of one workload reports.
type outcome struct {
	Workload  string
	Setups    []float64 // seconds; setup_s is their median
	Rate      float64   // correct answers per second over the measured part
	Lat       latencySummary
	Attempted int
	Failed    int
	Errors    []string          // the first few failures, for the operator
	Extra     map[string]metric // workload-specific end-to-end numbers (mutate_mix)
	Layers    map[string]metric // per-layer metrics of a traced run
}

func (o *outcome) failRatio() float64 {
	if o.Attempted == 0 {
		return 1
	}
	return float64(o.Failed) / float64(o.Attempted)
}

// failures collects failed operations from concurrent clients, and beside
// them what each answered request cost beyond the server's own plan and
// evaluation time.
type failures struct {
	mu         sync.Mutex
	n          int
	first      []string
	overheadMs []float64
}

// addN records n failures with one description.
func (f *failures) addN(n int, format string, args ...any) {
	f.add(format, args...)
	f.mu.Lock()
	f.n += n - 1
	f.mu.Unlock()
}

func (f *failures) overhead(latency time.Duration, r *queryResp) {
	f.mu.Lock()
	f.overheadMs = append(f.overheadMs, ms(latency)-r.Stats.PlanMs-r.Stats.WallMs)
	f.mu.Unlock()
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.first) < 5 {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
}

func (f *failures) into(o *outcome) {
	f.mu.Lock()
	defer f.mu.Unlock()
	o.Failed += f.n
	o.Errors = append(o.Errors, f.first...)
	if len(f.overheadMs) > 0 {
		o.Extra["ulixesd.overhead_ms"] = metric{median(f.overheadMs), "ms"}
	}
}

// repeatSetup sets up at least three times, and up to seven while the
// set-ups so far took under three seconds, tearing down all but the last. A
// run reports the median, so one slow process start moves setup_s little.
func repeatSetup[T any](setup func() (T, error), teardown func(T) error) (rig T, seconds []float64, err error) {
	var total time.Duration
	for {
		start := time.Now()
		if rig, err = setup(); err != nil {
			return rig, nil, err
		}
		took := time.Since(start)
		total += took
		seconds = append(seconds, took.Seconds())
		if len(seconds) >= 3 && (len(seconds) >= 7 || total >= 3*time.Second) {
			return rig, seconds, nil
		}
		if err = teardown(rig); err != nil {
			return rig, nil, err
		}
	}
}

// timedLoop runs the closed-loop clients until the window ends: each sends its
// next operation only when the previous one has answered. op reports whether
// the answer was correct. Operations that start during the warm-up are run but
// not counted.
func timedLoop(n int, seconds float64, op func(client, i int) bool) (samples []sample, attempted int, from, to time.Time) {
	window := time.Duration(seconds * float64(time.Second))
	from = time.Now().Add(time.Duration(warmupShare * float64(window)))
	to = from.Add(window)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []sample
			tried := 0
			for i := 0; ; i++ {
				start := time.Now()
				if !start.Before(to) {
					break
				}
				ok := op(c, i)
				if start.Before(from) {
					continue
				}
				tried++
				if ok {
					mine = append(mine, sample{Start: start, Dur: time.Since(start)})
				}
			}
			mu.Lock()
			samples = append(samples, mine...)
			attempted += tried
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return samples, attempted, from, to
}

// checkAnswer applies the correctness gate to one /query response: complete,
// the access ledger reconciles, the plan came from where the workload says it
// must, and the rows hash to the golden answer (want "" skips the hash).
func checkAnswer(r *queryResp, want string, wantCached bool) error {
	st := r.Stats
	switch {
	case r.Degraded || r.DeadlineExpired || len(r.Failures) > 0:
		return fmt.Errorf("partial answer (degraded=%v deadlineExpired=%v failures=%d)", r.Degraded, r.DeadlineExpired, len(r.Failures))
	case st.Accesses != st.Pages+st.CacheHits+st.Revalidations+st.Stale:
		return fmt.Errorf("accesses %d != pages %d + cacheHits %d + revalidations %d + stale %d",
			st.Accesses, st.Pages, st.CacheHits, st.Revalidations, st.Stale)
	case st.PlanCached != wantCached:
		return fmt.Errorf("planCached=%v, workload needs %v", st.PlanCached, wantCached)
	case st.FromView:
		return fmt.Errorf("answered from a view; view answering is off in every workload")
	}
	if want != "" {
		if got := hashRows(r.Columns, r.Rows); got != want {
			return fmt.Errorf("wrong answer: row-set hash %s, golden %s", got, want)
		}
	}
	return nil
}

// lookup returns the golden hash of a generated query; a query missing from
// the golden file is a harness bug, reported as a failure.
func (g golden) lookup(text string) (string, error) {
	h, ok := g[text]
	if !ok {
		return "", fmt.Errorf("no golden answer for %q (run -update-golden)", text)
	}
	return h, nil
}

// suiteCycle is the order in which a client visits the suite shapes; Q2, Q3,
// Q6 and Q10 come twice. On rtt_navigate the shapes fall into three latency
// groups: Q1, Q4 and Q5 (under 6 ms), Q7 (about 36 ms) and the other six (23
// to 28 ms). With every shape at one tenth the p90 sits on the edge between
// the last two groups and flips between them from run to run; with this cycle
// the groups hold 21 %, 7 % and 71 % of the requests, and both the median and
// the p90 fall inside the large one.
var suiteCycle = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 5, 9, 2}

// suiteClient generates one client's stream over the suite: the cycle in
// turn, the clients evenly apart on it, constants from the client's own
// seeded stream.
type suiteClient struct {
	rng    *rand.Rand
	offset int
}

func newSuiteClients(seed int64) []*suiteClient {
	out := make([]*suiteClient, clients)
	for c := range out {
		out[c] = &suiteClient{rng: rand.New(rand.NewSource(seed*7919 + int64(c))), offset: c * len(suiteCycle) / clients}
	}
	return out
}

func (s *suiteClient) next(i int) query {
	return suiteQuery(suiteCycle[(i+s.offset)%len(suiteCycle)], s.rng)
}

// primeSuite sends each suite shape once, so the server has planned every
// shape and fetched every page the suite touches.
func primeSuite(ctx context.Context, d *daemon, seed int64, g golden) error {
	rng := rand.New(rand.NewSource(seed))
	for i := range suite {
		q := suiteQuery(i, rng)
		want, err := g.lookup(q.Text)
		if err != nil {
			return err
		}
		r, err := d.query(ctx, q.Text)
		if err != nil {
			return fmt.Errorf("priming %s: %w", suite[i].Name, err)
		}
		if err := checkAnswer(r, want, false); err != nil {
			return fmt.Errorf("priming %s: %w", suite[i].Name, err)
		}
	}
	return nil
}

// statsDelta is what the server did between two /stats readings.
type statsDelta struct {
	PlanHits, PlanMisses, Fetches, Refused int
}

func (before serverStats) until(after serverStats) statsDelta {
	return statsDelta{
		PlanHits:   int(after.PlanHits - before.PlanHits),
		PlanMisses: int(after.PlanMisses - before.PlanMisses),
		Fetches:    after.Fetches - before.Fetches,
		Refused:    after.refused() - before.refused(),
	}
}

func (d *daemon) statsSince(ctx context.Context, before serverStats) (statsDelta, error) {
	after, err := d.stats(ctx)
	return before.until(after), err
}

// validate records as failures whatever shows that a server run measured
// something other than its workload: requests that planned when every plan
// must come from the cache (or the reverse, on cold_shapes), pages fetched
// when the store must hold them all, and any request admission refused (two
// clients never fill the eight slots).
func (d statsDelta) validate(fails *failures, wantPlanHits, wantNoFetches bool) {
	total := d.PlanHits + d.PlanMisses
	switch {
	case wantPlanHits && (total == 0 || float64(d.PlanHits) < 0.99*float64(total)):
		fails.add("workload invalid: plan cache hits %d of %d, want >= 99%%", d.PlanHits, total)
	case !wantPlanHits && d.PlanHits != 0:
		fails.add("workload invalid: %d plan-cache hits, want 0 (shapes not distinct)", d.PlanHits)
	}
	if wantNoFetches && d.Fetches != 0 {
		fails.add("workload invalid: %d site GETs during the measured part, want 0", d.Fetches)
	}
	if d.Refused != 0 {
		fails.add("run invalid: %d requests refused by admission", d.Refused)
	}
}

// finish ends a server run: peak memory, a drain that must exit 0, and the
// failures folded into the outcome.
func (o *outcome) finish(d *daemon, fails *failures) {
	o.Extra["ulixesd.rss_mb"] = metric{d.peakRSSMB(), "MB"}
	if err := d.stop(); err != nil {
		fails.add("%v", err)
	}
	fails.into(o)
}

func newOutcome(workload string) *outcome {
	return &outcome{Workload: workload, Extra: make(map[string]metric), Layers: make(map[string]metric)}
}

// runWarmRepeat: default ulixesd, every shape primed, so each measured
// request is a plan-cache hit and a page-store hit.
func runWarmRepeat(ctx context.Context, root string, seed int64, seconds float64) (*outcome, error) {
	g, err := loadGolden(root, "warm_repeat")
	if err != nil {
		return nil, err
	}
	bin, err := buildDaemon(root)
	if err != nil {
		return nil, err
	}
	out := newOutcome("warm_repeat")
	d, setups, err := repeatSetup(func() (*daemon, error) {
		d, err := startDaemon(bin)
		if err != nil {
			return nil, err
		}
		if err := primeSuite(ctx, d, seed, g); err != nil {
			d.kill()
			return nil, err
		}
		return d, nil
	}, (*daemon).stop)
	if err != nil {
		return nil, err
	}
	out.Setups = setups
	before, err := d.stats(ctx)
	if err != nil {
		d.kill()
		return nil, err
	}
	var fails failures
	gen := newSuiteClients(seed)
	samples, attempted, from, to := timedLoop(clients, seconds, func(c, i int) bool {
		return serverOp(ctx, d, gen[c].next(i), g, true, &fails)
	})
	out.Attempted = attempted
	out.Lat, out.Rate = summarize(samples, from, to, throughputSlices)
	delta, err := d.statsSince(ctx, before)
	if err != nil {
		d.kill()
		return nil, err
	}
	delta.validate(&fails, true, true)
	out.finish(d, &fails)
	return out, nil
}

// serverOp sends one query to ulixesd and applies the correctness gate; a nil
// golden skips the answer's hash.
func serverOp(ctx context.Context, d *daemon, q query, g golden, wantCached bool, fails *failures) bool {
	want := ""
	if g != nil {
		var err error
		if want, err = g.lookup(q.Text); err != nil {
			fails.add("%v", err)
			return false
		}
	}
	start := time.Now()
	r, err := d.query(ctx, q.Text)
	if err != nil {
		fails.add("%v", err)
		return false
	}
	fails.overhead(time.Since(start), r)
	if err := checkAnswer(r, want, wantCached); err != nil {
		fails.add("%s: %v", q.Text, err)
		return false
	}
	return true
}

// runColdShapes: the same server, page store filled, every request a shape the
// server has never planned. A fixed count of shapes, not a fixed time, so a
// faster planner is measured on the same shapes.
func runColdShapes(ctx context.Context, root string, seed int64, seconds float64) (*outcome, error) {
	g, err := loadGolden(root, "cold_shapes")
	if err != nil {
		return nil, err
	}
	shapes, err := coldShapes(seed, int(coldPerSec*seconds))
	if err != nil {
		return nil, err
	}
	bin, err := buildDaemon(root)
	if err != nil {
		return nil, err
	}
	out := newOutcome("cold_shapes")
	out.Attempted = len(shapes)
	d, setups, err := repeatSetup(func() (*daemon, error) {
		d, err := startDaemon(bin)
		if err != nil {
			return nil, err
		}
		for _, text := range primingScans {
			if _, err := d.query(ctx, text); err != nil {
				d.kill()
				return nil, fmt.Errorf("priming scan: %w", err)
			}
		}
		return d, nil
	}, (*daemon).stop)
	if err != nil {
		return nil, err
	}
	out.Setups = setups
	before, err := d.stats(ctx)
	if err != nil {
		d.kill()
		return nil, err
	}

	// Unfinished shapes at the hard timeout count as failures.
	hard, cancel := context.WithTimeout(ctx, time.Duration(4*seconds*float64(time.Second)))
	defer cancel()
	var fails failures
	var next atomic.Int64
	var mu sync.Mutex
	var samples []sample
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for hard.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(shapes) {
					return
				}
				t := time.Now()
				if serverOp(hard, d, shapes[i], g, false, &fails) {
					mu.Lock()
					samples = append(samples, sample{Start: t, Dur: time.Since(t)})
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	// One slice: a fixed count of shapes has no equal parts to compare.
	out.Lat, out.Rate = summarize(samples, start, time.Now(), 1)
	if sent := int(next.Load()); sent < len(shapes) {
		fails.addN(len(shapes)-sent, "%d shapes not sent before the hard timeout", len(shapes)-sent)
	}
	delta, err := d.statsSince(ctx, before)
	if err != nil {
		d.kill()
		return nil, err
	}
	delta.validate(&fails, false, true)
	out.finish(d, &fails)
	return out, nil
}

// rttRig is the in-process library path of rtt_navigate.
type rttRig struct {
	env *libEnv
}

func (r *rttRig) exec() ulixes.ExecOptions {
	// A fresh, empty page store for every operation: each query navigates the
	// latent site from scratch, so its wall time is the paper's C(E).
	return ulixes.ExecOptions{
		Pipelined: true,
		Workers:   rttWorkers,
		Cache: pagecache.New(r.env.server, r.env.univ.Scheme, pagecache.Config{
			DefaultTTL: pagecache.Forever, Workers: rttWorkers,
		}),
	}
}

// op runs one query the way webq does: parse, plan (a cache hit), navigate.
func (r *rttRig) op(ctx context.Context, q query, g golden, wantCached bool) (gets int, err error) {
	want, err := g.lookup(q.Text)
	if err != nil {
		return 0, err
	}
	parsed, err := ulixes.ParseQuery(q.Text)
	if err != nil {
		return 0, err
	}
	ans, err := r.env.sys.QueryCQOptsCtx(ctx, parsed, r.exec())
	if err != nil {
		return 0, err
	}
	st := ans.Exec
	switch {
	case st.Degraded || len(st.FailedPages) > 0:
		return 0, fmt.Errorf("partial answer")
	case st.CacheHits+st.Revalidations+st.Stale != 0:
		return 0, fmt.Errorf("empty page store served %d accesses", st.CacheHits+st.Revalidations+st.Stale)
	case st.PlanCached != wantCached:
		return 0, fmt.Errorf("planCached=%v, workload needs %v", st.PlanCached, wantCached)
	}
	if got := hashRelation(ans.Result); got != want {
		return 0, fmt.Errorf("wrong answer: row-set hash %s, golden %s", got, want)
	}
	return st.Pages, nil
}

func setupRTT(ctx context.Context, seed int64, g golden) (*rttRig, error) {
	env, err := newLibEnv(rttLatency, nil)
	if err != nil {
		return nil, err
	}
	env.sys.EnablePlanCache(ulixes.PlanCacheConfig{})
	rig := &rttRig{env: env}
	rng := rand.New(rand.NewSource(seed))
	for i := range suite {
		if _, err := rig.op(ctx, suiteQuery(i, rng), g, false); err != nil {
			return nil, fmt.Errorf("priming %s: %w", suite[i].Name, err)
		}
	}
	return rig, nil
}

// runRTTNavigate: the library path over a site with a 2 ms round trip, the
// one workload where page accesses are the wall time.
func runRTTNavigate(ctx context.Context, root string, seed int64, seconds float64) (*outcome, error) {
	g, err := loadGolden(root, "rtt_navigate")
	if err != nil {
		return nil, err
	}
	out := newOutcome("rtt_navigate")
	rig, setups, err := repeatSetup(
		func() (*rttRig, error) { return setupRTT(ctx, seed, g) },
		func(*rttRig) error { return nil })
	if err != nil {
		return nil, err
	}
	out.Setups = setups
	plans := rig.env.sys.PlanCache().Counters()
	getsBefore := rig.env.mem.Counters().Gets()
	var fails failures
	var pages atomic.Int64
	gen := newSuiteClients(seed)
	samples, attempted, from, to := timedLoop(clients, seconds, func(c, i int) bool {
		q := gen[c].next(i)
		n, err := rig.op(ctx, q, g, true)
		if err != nil {
			fails.add("%s: %v", q.Text, err)
			return false
		}
		pages.Add(int64(n))
		return true
	})
	out.Attempted = attempted
	out.Lat, out.Rate = summarize(samples, from, to, throughputSlices)
	// Workload validity: every access of every query reached the site (warm-up
	// included on both sides), and no query planned.
	if gets := rig.env.mem.Counters().Gets() - getsBefore; int64(gets) != pages.Load() {
		fails.add("workload invalid: site saw %d GETs, queries report %d pages", gets, pages.Load())
	}
	if after := rig.env.sys.PlanCache().Counters(); after.Misses != plans.Misses {
		fails.add("workload invalid: %d plan-cache misses, want 0", after.Misses-plans.Misses)
	}
	fails.into(out)
	return out, nil
}
