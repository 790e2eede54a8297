package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ulixes/internal/sitegen"
)

// standingQueries are the four subscriptions of mutate_mix. The writer's
// edit-rank always changes the first one's answer and its edit-course always
// changes the second one's, so the k-th such mutation causes exactly the
// (k+1)-th delta of that subscription (the first delta is the snapshot); that
// pairing is how delta lag is measured. E7.1 and Q10 are the join queries
// whose re-answers compete with the reader.
var standingQueries = []string{
	"SELECT p.PName, p.Rank FROM Professor p",
	"SELECT c.CName, c.Description FROM Course c",
	strings.NewReplacer("{Session}", "Fall", "{Rank}", "Full").Replace(suite[6].Text),
	strings.NewReplacer("{Session}", "Fall").Replace(suite[9].Text),
}

// lagSource maps a mutation op to the subscription whose deltas time it.
var lagSource = map[string]int{"edit-rank": 0, "edit-course": 1}

// delta is one SSE event of /watch.
type delta struct {
	Seq     int      `json:"seq"`
	Added   []string `json:"added"`
	Removed []string `json:"removed"`
}

// watcher consumes one subscription's SSE stream, keeping each delta's
// arrival time and the answer the deltas add up to.
type watcher struct {
	id   int
	text string

	mu       sync.Mutex
	arrivals []time.Time     // arrivals[seq-1]; guarded by mu
	answer   map[string]bool // snapshot plus every delta so far; guarded by mu
	err      error           // guarded by mu
}

func (w *watcher) seq() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.arrivals)
}

// watch reads the stream until ctx ends.
func (w *watcher) watch(ctx context.Context, d *daemon) {
	fail := func(err error) {
		if ctx.Err() != nil {
			return // the harness closed the stream
		}
		w.mu.Lock()
		w.err = err
		w.mu.Unlock()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/watch?id=%d&sse=1", d.base, w.id), nil)
	if err != nil {
		fail(err)
		return
	}
	resp, err := d.http.Do(req) //lint:allow fetchgate client of the server under test, not a page fetch
	if err != nil {
		fail(err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("/watch: status %d", resp.StatusCode))
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26) // the snapshot is one long data line
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		at := time.Now()
		var dl delta
		if err := json.Unmarshal([]byte(data), &dl); err != nil {
			fail(fmt.Errorf("/watch: %w", err))
			return
		}
		w.mu.Lock()
		if dl.Seq != len(w.arrivals)+1 {
			w.err = fmt.Errorf("subscription %d: delta seq %d after %d", w.id, dl.Seq, len(w.arrivals))
			w.mu.Unlock()
			return
		}
		w.arrivals = append(w.arrivals, at)
		for _, t := range dl.Removed {
			delete(w.answer, t)
		}
		for _, t := range dl.Added {
			w.answer[t] = true
		}
		w.mu.Unlock()
	}
	fail(fmt.Errorf("/watch stream of subscription %d ended: %v", w.id, sc.Err()))
}

// mutation is one step of the open-loop writer.
type mutation struct {
	Due, Sent time.Time
	Op        string
}

// dueTime is the instant the i-th operation of a fixed-rate schedule is due,
// whatever happened to the operations before it.
func dueTime(start time.Time, perSecond, i int) time.Time {
	return start.Add(time.Duration(i) * time.Second / time.Duration(perSecond))
}

// writer issues POST /mutate?n=1 on the schedule until the window ends. One
// caller: a late reply delays the next send, never its due time.
func writer(ctx context.Context, d *daemon, start, until time.Time, fails *failures) []mutation {
	var out []mutation
	for i := 0; ; i++ {
		due := dueTime(start, mutateRate, i)
		if !due.Before(until) || ctx.Err() != nil {
			return out
		}
		time.Sleep(time.Until(due))
		m := mutation{Due: due, Sent: time.Now()}
		var steps []struct {
			Op string `json:"op"`
		}
		if err := d.post(ctx, "/mutate?n=1", "", &steps); err != nil || len(steps) != 1 {
			fails.add("POST /mutate: %v (%d steps)", err, len(steps))
		} else {
			m.Op = steps[0].Op
		}
		out = append(out, m)
	}
}

// deltaLags pairs each delta-causing mutation due at or after from with its
// delta's arrival and returns the lags, and how many deltas never arrived.
// arrivals[s] holds subscription s's arrival times by seq-1.
func deltaLags(muts []mutation, arrivals [][]time.Time, from time.Time) (lags []time.Duration, missing int) {
	seen := make([]int, len(arrivals)) // delta-causing mutations so far, per subscription
	for _, m := range muts {
		s, ok := lagSource[m.Op]
		if !ok {
			continue
		}
		seen[s]++
		if m.Due.Before(from) {
			continue
		}
		if seen[s] >= len(arrivals[s]) { // seq = seen+1, index = seen
			missing++
			continue
		}
		lags = append(lags, arrivals[s][seen[s]].Sub(m.Due))
	}
	return lags, missing
}

// renderRows renders /query rows the way standing deltas render tuples
// (nested.Tuple.String).
func renderRows(cols []string, rows [][]string) map[string]bool {
	out := make(map[string]bool, len(rows))
	for _, r := range rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = cols[i] + ": " + v
		}
		out["<"+strings.Join(parts, ", ")+">"] = true
	}
	return out
}

type mutateRig struct {
	d        *daemon
	watchers []*watcher
}

func setupMutate(ctx context.Context, bin string, seed int64, g golden) (*mutateRig, error) {
	d, err := startDaemon(bin, "-feed", "hook", "-mutate-seed", strconv.FormatInt(seed, 10))
	if err != nil {
		return nil, err
	}
	if err := primeSuite(ctx, d, seed, g); err != nil {
		d.kill()
		return nil, err
	}
	rig := &mutateRig{d: d}
	for _, text := range standingQueries {
		var sub struct {
			ID int `json:"id"`
		}
		if err := d.post(ctx, "/subscribe", text, &sub); err != nil {
			d.kill()
			return nil, err
		}
		rig.watchers = append(rig.watchers, &watcher{id: sub.ID, text: text, answer: make(map[string]bool)})
	}
	return rig, nil
}

// runMutateMix: ulixesd -feed hook, one closed-loop reader on the suite, one
// writer mutating the site at a fixed rate, four standing queries watched
// over SSE.
func runMutateMix(ctx context.Context, root string, seed int64, seconds float64) (*outcome, error) {
	g, err := loadGolden(root, "mutate_mix")
	if err != nil {
		return nil, err
	}
	bin, err := buildDaemon(root)
	if err != nil {
		return nil, err
	}
	out := newOutcome("mutate_mix")
	rig, setups, err := repeatSetup(
		func() (*mutateRig, error) { return setupMutate(ctx, bin, seed, g) },
		func(r *mutateRig) error { return r.d.stop() })
	if err != nil {
		return nil, err
	}
	out.Setups = setups
	d := rig.d
	before, err := d.stats(ctx)
	if err != nil {
		d.kill()
		return nil, err
	}

	watchCtx, stopWatch := context.WithCancel(ctx)
	var watching sync.WaitGroup
	for _, w := range rig.watchers {
		watching.Add(1)
		go func(w *watcher) {
			defer watching.Done()
			w.watch(watchCtx, d)
		}(w)
	}
	defer func() {
		stopWatch()
		watching.Wait()
	}()

	var fails failures
	gen := newSuiteClients(seed)[0]
	var muts []mutation
	var writing sync.WaitGroup
	writing.Add(1)
	window := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	until := start.Add(time.Duration((1 + warmupShare) * float64(window)))
	go func() {
		defer writing.Done()
		muts = writer(ctx, d, start, until, &fails)
	}()
	samples, attempted, from, to := timedLoop(1, seconds, func(_, i int) bool {
		q := gen.next(i)
		answers := g
		if mutableShape[suite[q.Shape].Name] {
			// The answer depends on how many mutations have landed: it gets
			// every check but the hash here, and the oracle's at the end.
			answers = nil
		}
		return serverOp(ctx, d, q, answers, true, &fails)
	})
	writing.Wait()
	out.Lat, out.Rate = summarize(samples, from, to, throughputSlices)

	// Every delta the server pushed must reach its watcher before lags are read.
	var after serverStats
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if after, err = d.stats(ctx); err != nil {
			d.kill()
			return nil, err
		}
		got := 0
		for _, w := range rig.watchers {
			got += w.seq()
		}
		if after.Standing != nil && got >= after.Standing.Deltas {
			break
		}
		if time.Now().After(deadline) {
			fails.add("watchers received %d of the pushed deltas after 5 s", got)
			break
		}
	}

	measured := 0
	for _, m := range muts {
		if !m.Due.Before(from) {
			measured++
		}
	}
	arrivals := make([][]time.Time, len(rig.watchers))
	for i, w := range rig.watchers {
		w.mu.Lock()
		arrivals[i] = append([]time.Time(nil), w.arrivals...)
		if w.err != nil {
			fails.add("%v", w.err)
		}
		w.mu.Unlock()
	}
	lags, missing := deltaLags(muts, arrivals, from)
	for i := 0; i < missing; i++ {
		fails.add("a mutation's delta never arrived")
	}
	out.Attempted = attempted + measured
	lagMs := make([]float64, len(lags))
	for i, l := range lags {
		lagMs[i] = ms(l)
	}
	sort.Float64s(lagMs)
	late := make([]float64, 0, len(muts))
	for _, m := range muts {
		late = append(late, ms(m.Sent.Sub(m.Due)))
	}
	sort.Float64s(late)
	p50, _ := percentile(lagMs, 50)
	p90, _ := percentile(lagMs, 90)
	lateP50, _ := percentile(late, 50)
	lateMax, _ := percentile(late, 100)
	out.Extra["delta_lag_p50_ms"] = metric{p50, "ms"}
	out.Extra["delta_lag_p90_ms"] = metric{p90, "ms"}
	out.Extra["delta_lag_n"] = metric{float64(len(lagMs)), "count"}
	out.Extra["writer_lateness_p50_ms"] = metric{lateP50, "ms"}
	out.Extra["writer_lateness_max_ms"] = metric{lateMax, "ms"}

	if err := verifyMutated(ctx, rig, seed, len(muts)); err != nil {
		fails.add("%v", err)
	}
	before.until(after).validate(&fails, true, false) // invalidated pages are fetched again
	stopWatch()
	watching.Wait()
	out.finish(d, &fails)
	return out, nil
}

// verifyMutated checks the quiesced end state: each subscription's snapshot
// plus deltas equals a fresh /query answer, and fresh answers of the standing
// queries and of the suite shapes the writer can change equal the oracle's on
// an identically seeded site after the same number of mutations.
func verifyMutated(ctx context.Context, rig *mutateRig, seed int64, mutations int) error {
	oracle, err := newOracle()
	if err != nil {
		return err
	}
	sitegen.NewMutator(oracle.univ, oracle.mem, seed).Steps(mutations)
	fresh := func(text string) (*queryResp, error) {
		r, err := rig.d.query(ctx, text)
		if err != nil {
			return nil, err
		}
		want, err := oracle.answerHash(text)
		if err != nil {
			return nil, err
		}
		if got := hashRows(r.Columns, r.Rows); got != want {
			return nil, fmt.Errorf("after %d mutations: %s: row-set hash %s, oracle %s", mutations, text, got, want)
		}
		return r, nil
	}
	for _, w := range rig.watchers {
		r, err := fresh(w.text)
		if err != nil {
			return err
		}
		want := renderRows(r.Columns, r.Rows)
		w.mu.Lock()
		same := len(want) == len(w.answer)
		for t := range want {
			same = same && w.answer[t]
		}
		w.mu.Unlock()
		if !same {
			return fmt.Errorf("subscription %d: snapshot plus deltas differs from a fresh answer of %s", w.id, w.text)
		}
	}
	for _, q := range allSuiteQueries() {
		if !mutableShape[suite[q.Shape].Name] {
			continue
		}
		if _, err := fresh(q.Text); err != nil {
			return err
		}
	}
	return nil
}
