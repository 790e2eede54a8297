package standing

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ulixes/internal/adm"
	"ulixes/internal/changefeed"
	"ulixes/internal/cq"
	"ulixes/internal/engine"
	"ulixes/internal/nested"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
	"ulixes/internal/stats"
	"ulixes/internal/view"
)

// fixture wires the full push pipeline: university site → hook-mode change
// feed → standing registry answering through a live engine.
func fixture(t *testing.T, cfg Config) (*sitegen.University, *site.MemSite, *Registry, *changefeed.Monitor) {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	views := view.UniversityView(u.Scheme)
	eng := engine.New(views, ms, stats.CollectInstance(u.Instance))
	if cfg.Views == nil {
		cfg.Views = views
	}
	if cfg.Answer == nil {
		cfg.Answer = func(q *cq.Query) (*nested.Relation, error) {
			ans, err := eng.QueryCQ(q)
			if err != nil {
				return nil, err
			}
			return ans.Result, nil
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = site.LogicalClock()
	}
	reg := New(cfg)
	mon := changefeed.New(ms, changefeed.Config{Clock: cfg.Clock})
	mon.AttachMemSite(ms)
	mon.Subscribe(reg)
	return u, ms, reg, mon
}

func profTuple(t *testing.T, u *sitegen.University, i int) (string, nested.Tuple) {
	t.Helper()
	for _, tup := range u.Instance.Relation(sitegen.ProfPage).Tuples() {
		if tup.MustGet("Name").String() == sitegen.ProfName(i) {
			return tup.MustGet(adm.URLAttr).String(), tup
		}
	}
	t.Fatalf("prof %d not found", i)
	return "", nested.Tuple{}
}

// TestDeltasFollowMutations pins the end-to-end contract: a mutation on the
// query's footprint yields exactly the added/removed answer tuples a fresh
// query would show, in sequence order.
func TestDeltasFollowMutations(t *testing.T) {
	u, ms, reg, _ := fixture(t, Config{})
	id, err := reg.Subscribe("SELECT p.PName FROM Professor p WHERE p.Rank = 'Emeritus'")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Initial snapshot: seq 1, empty (nobody is emeritus yet).
	ds, err := reg.Next(ctx, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].Seq != 1 || len(ds[0].Added) != 0 || len(ds[0].Removed) != 0 {
		t.Fatalf("initial deltas = %+v, want one empty snapshot", ds)
	}

	// Promote professor 3: one delta, one added tuple.
	_, tup := profTuple(t, u, 3)
	if err := ms.UpdatePage(sitegen.ProfPage, tup.With("Rank", nested.TextValue("Emeritus"))); err != nil {
		t.Fatal(err)
	}
	ds, err = reg.Next(ctx, id, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].Seq != 2 {
		t.Fatalf("post-promotion deltas = %+v", ds)
	}
	if len(ds[0].Added) != 1 || !strings.Contains(ds[0].Added[0], sitegen.ProfName(3)) || len(ds[0].Removed) != 0 {
		t.Fatalf("promotion delta = %+v, want exactly Prof. 003 added", ds[0])
	}

	// Demote them again: the same tuple leaves the answer.
	if err := ms.UpdatePage(sitegen.ProfPage, tup.With("Rank", nested.TextValue("Assistant"))); err != nil {
		t.Fatal(err)
	}
	ds, err = reg.Next(ctx, id, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].Seq != 3 || len(ds[0].Removed) != 1 || len(ds[0].Added) != 0 {
		t.Fatalf("demotion delta = %+v, want exactly one removal", ds)
	}
	if ds[0].Removed[0] != "" && !strings.Contains(ds[0].Removed[0], sitegen.ProfName(3)) {
		t.Fatalf("removed tuple = %q", ds[0].Removed[0])
	}

	// A catch-up reader sees the whole history.
	all, err := reg.Next(ctx, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("full history has %d deltas, want 3", len(all))
	}
}

// TestMultiClientSameDeltas: two subscriptions of the same query receive
// byte-identical delta streams, and concurrent blocked readers all wake.
func TestMultiClientSameDeltas(t *testing.T) {
	u, ms, reg, _ := fixture(t, Config{})
	src := "SELECT p.PName, p.Rank FROM Professor p WHERE p.Rank = 'Emeritus'"
	id1, err := reg.Subscribe(src)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := reg.Subscribe(src)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Three clients block BEFORE the mutation: two on sub 1, one on sub 2.
	type got struct {
		ds  []Delta
		err error
	}
	results := make([]got, 3)
	var wg sync.WaitGroup
	for i, c := range []struct{ id, after int }{{id1, 1}, {id1, 1}, {id2, 1}} {
		wg.Add(1)
		go func(slot int, id, after int) {
			defer wg.Done()
			ds, err := reg.Next(ctx, id, after)
			results[slot] = got{ds, err}
		}(i, c.id, c.after)
	}
	// Give the readers a moment to block, then mutate twice.
	time.Sleep(50 * time.Millisecond)
	_, tup := profTuple(t, u, 0)
	if err := ms.UpdatePage(sitegen.ProfPage, tup.With("Rank", nested.TextValue("Emeritus"))); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("client %d: %v", i, r.err)
		}
		if len(r.ds) != 1 || r.ds[0].Seq != 2 {
			t.Fatalf("client %d deltas = %+v", i, r.ds)
		}
	}
	if !reflect.DeepEqual(results[0].ds, results[1].ds) || !reflect.DeepEqual(results[0].ds[0].Added, results[2].ds[0].Added) {
		t.Fatalf("clients diverged: %+v vs %+v vs %+v", results[0].ds, results[1].ds, results[2].ds)
	}
}

// TestFootprintScopesReanswers: events off the query's footprint must not
// trigger re-evaluation.
func TestFootprintScopesReanswers(t *testing.T) {
	u, ms, reg, _ := fixture(t, Config{})
	id, err := reg.Subscribe("SELECT p.PName FROM Professor p")
	if err != nil {
		t.Fatal(err)
	}
	fp := reg.Footprint(id)
	want := []string{sitegen.ProfListPage, sitegen.ProfPage}
	if !reflect.DeepEqual(fp, want) {
		t.Fatalf("footprint = %v, want %v", fp, want)
	}
	before := reg.Counters()

	// Mutate a course page: off-footprint, no re-answer.
	var courseTup nested.Tuple
	for _, tup := range u.Instance.Relation(sitegen.CoursePage).Tuples() {
		courseTup = tup
		break
	}
	if err := ms.UpdatePage(sitegen.CoursePage, courseTup.With("Description", nested.TextValue("x"))); err != nil {
		t.Fatal(err)
	}
	after := reg.Counters()
	if after.Reanswers != before.Reanswers {
		t.Fatalf("off-footprint event re-answered: %+v -> %+v", before, after)
	}
	if after.Events != before.Events+1 {
		t.Fatalf("event not counted: %+v -> %+v", before, after)
	}
}

// TestMaxSubsRejected: the cap refuses further subscriptions and counts the
// rejection.
func TestMaxSubsRejected(t *testing.T) {
	_, _, reg, _ := fixture(t, Config{MaxSubs: 1})
	if _, err := reg.Subscribe("SELECT p.PName FROM Professor p"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Subscribe("SELECT p.PName FROM Professor p"); err == nil {
		t.Fatal("second subscription should be rejected")
	}
	if _, err := reg.Subscribe("SELEC nonsense"); err == nil {
		t.Fatal("unparsable query should be rejected")
	}
	c := reg.Counters()
	if c.Subscribes != 1 || c.Rejections != 2 {
		t.Fatalf("counters %+v, want 1 subscribe / 2 rejections", c)
	}
}

// TestUnsubscribeWakesBlockedNext: cancellation must not strand a long-poll.
func TestUnsubscribeWakesBlockedNext(t *testing.T) {
	_, _, reg, _ := fixture(t, Config{})
	id, err := reg.Subscribe("SELECT p.PName FROM Professor p")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := reg.Next(ctx, id, 1) // seq 1 already consumed: blocks
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if !reg.Unsubscribe(id) {
		t.Fatal("Unsubscribe found nothing")
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("blocked Next returned nil after unsubscribe")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Next never woke")
	}
	if reg.Unsubscribe(id) {
		t.Fatal("second Unsubscribe should report false")
	}
}

// ringMeter accumulates ByteMeter charges from the registry.
type ringMeter struct {
	mu sync.Mutex
	n  int64
}

func (m *ringMeter) Add(d int64) {
	m.mu.Lock()
	m.n += d
	m.mu.Unlock()
}

func (m *ringMeter) Load() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// TestRingByteBoundDropsOldest: once a subscription's retained deltas
// exceed MaxRingBytes, the oldest are dropped (never the newest), the drop
// is counted, and the meter balance tracks the retained bytes exactly —
// through trimming and through unsubscribe.
func TestRingByteBoundDropsOldest(t *testing.T) {
	m := &ringMeter{}
	u, ms, reg, _ := fixture(t, Config{MaxRingBytes: 160, Meter: m})
	id, err := reg.Subscribe("SELECT p.PName FROM Professor p WHERE p.Rank = 'Emeritus'")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Each promotion/demotion round pushes two deltas of ~70-80 bytes, so
	// a handful of rounds far exceeds the 160-byte bound.
	_, tup := profTuple(t, u, 3)
	for i := 0; i < 4; i++ {
		if err := ms.UpdatePage(sitegen.ProfPage, tup.With("Rank", nested.TextValue("Emeritus"))); err != nil {
			t.Fatal(err)
		}
		if err := ms.UpdatePage(sitegen.ProfPage, tup.With("Rank", nested.TextValue("Assistant"))); err != nil {
			t.Fatal(err)
		}
	}

	ds, err := reg.Next(ctx, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 || len(ds) >= 9 {
		t.Fatalf("retained %d deltas, want a trimmed non-empty suffix of 9", len(ds))
	}
	if ds[0].Seq == 1 {
		t.Fatal("oldest delta survived past the byte bound")
	}
	if last := ds[len(ds)-1].Seq; last != 9 {
		t.Fatalf("newest retained seq = %d, want 9", last)
	}
	var retained int
	for _, d := range ds {
		retained += deltaBytes(d)
	}
	c := reg.Counters()
	if int64(retained) != c.RingBytes {
		t.Fatalf("RingBytes = %d, deltas sum to %d", c.RingBytes, retained)
	}
	if got := m.Load(); got != c.RingBytes {
		t.Fatalf("meter %d != RingBytes %d", got, c.RingBytes)
	}
	dropped := c.RingDropped
	if dropped != 9-len(ds) {
		t.Fatalf("RingDropped = %d, want %d", dropped, 9-len(ds))
	}

	// Unsubscribe refunds everything.
	if !reg.Unsubscribe(id) {
		t.Fatal("Unsubscribe failed")
	}
	if got := m.Load(); got != 0 {
		t.Fatalf("meter %d after unsubscribe, want 0", got)
	}
	if got := reg.Counters().RingBytes; got != 0 {
		t.Fatalf("RingBytes %d after unsubscribe, want 0", got)
	}
}

// TestRingByteBoundKeepsNewest: a single delta larger than the bound is
// still retained — the bound trims history, it cannot make a subscription
// lose its latest update.
func TestRingByteBoundKeepsNewest(t *testing.T) {
	u, ms, reg, _ := fixture(t, Config{MaxRingBytes: 1})
	id, err := reg.Subscribe("SELECT p.PName FROM Professor p WHERE p.Rank = 'Emeritus'")
	if err != nil {
		t.Fatal(err)
	}
	_, tup := profTuple(t, u, 5)
	if err := ms.UpdatePage(sitegen.ProfPage, tup.With("Rank", nested.TextValue("Emeritus"))); err != nil {
		t.Fatal(err)
	}
	ds, err := reg.Next(context.Background(), id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].Seq != 2 || len(ds[0].Added) != 1 {
		t.Fatalf("retained deltas = %+v, want exactly the newest", ds)
	}
}
