package overload

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// manualClock is a hand-advanced clock safe for concurrent reads.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Unix(1000, 0)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// manualTimer hands out one controllable timer channel per start.
type manualTimer struct {
	mu    sync.Mutex
	chans []chan time.Time
}

func (t *manualTimer) Start(d time.Duration) (<-chan time.Time, func()) {
	ch := make(chan time.Time, 1)
	t.mu.Lock()
	t.chans = append(t.chans, ch)
	t.mu.Unlock()
	return ch, func() {}
}

func (t *manualTimer) Fire(i int) {
	t.mu.Lock()
	ch := t.chans[i]
	t.mu.Unlock()
	ch <- time.Time{}
}

func TestQueueInstantGrantAndRelease(t *testing.T) {
	q := NewQueue(QueueConfig{Slots: 2})
	t1, err := q.Acquire(context.Background(), Normal, 0)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	t2, err := q.Acquire(context.Background(), Normal, 0)
	if err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	if got := q.Running(); got != 2 {
		t.Fatalf("running = %d, want 2", got)
	}
	// Slots full, MaxQueue 0: the pre-existing instant-reject behaviour.
	if _, err := q.Acquire(context.Background(), Normal, 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third acquire err = %v, want ErrQueueFull", err)
	}
	t1.Release()
	t1.Release() // idempotent
	t2.Release()
	if got := q.Running(); got != 0 {
		t.Fatalf("running after release = %d, want 0", got)
	}
	c := q.Counters()
	if c.Admitted != 2 || c.QueueFull != 1 {
		t.Fatalf("counters = %+v, want Admitted 2 QueueFull 1", c)
	}
}

func TestQueueFIFOGrant(t *testing.T) {
	q := NewQueue(QueueConfig{Slots: 1, MaxQueue: 4})
	first, err := q.Acquire(context.Background(), Normal, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	type result struct {
		idx int
		tk  *Ticket
		err error
	}
	results := make(chan result, 2)
	started := make(chan int, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			// Serialize enqueue order so FIFO is observable.
			started <- i
			tk, err := q.Acquire(context.Background(), Normal, 0)
			results <- result{i, tk, err}
		}()
		<-started
		waitForDepth(t, q, i+1)
	}
	first.Release()
	r1 := <-results
	if r1.err != nil {
		t.Fatalf("first waiter: %v", r1.err)
	}
	if r1.idx != 0 {
		t.Fatalf("grant order: waiter %d served first, want 0", r1.idx)
	}
	r1.tk.Release()
	r2 := <-results
	if r2.err != nil {
		t.Fatalf("second waiter: %v", r2.err)
	}
	r2.tk.Release()
}

func waitForDepth(t *testing.T, q *Queue, want int) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if q.Depth() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue depth never reached %d (at %d)", want, q.Depth())
}

func TestQueueLowPriorityGetsHalfTheQueue(t *testing.T) {
	q := NewQueue(QueueConfig{Slots: 1, MaxQueue: 4})
	tk, err := q.Acquire(context.Background(), Normal, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer tk.Release()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Acquire(ctx, Normal, 0)
		}()
		waitForDepth(t, q, i+1)
	}
	// Depth 2 = half of MaxQueue 4: low priority is refused, normal queues.
	if _, err := q.Acquire(ctx, Low, 0); !errors.Is(err, ErrShed) {
		t.Fatalf("low-priority acquire err = %v, want ErrShed", err)
	}
	cancel()
	wg.Wait()
	c := q.Counters()
	if c.ShedLowPriority != 1 || c.Canceled != 2 || c.PeakDepth != 2 {
		t.Fatalf("counters = %+v, want ShedLowPriority 1 Canceled 2 PeakDepth 2", c)
	}
}

func TestQueueSojournTimerDrop(t *testing.T) {
	clk := newManualClock()
	tm := &manualTimer{}
	q := NewQueue(QueueConfig{Slots: 1, MaxQueue: 4, MaxWait: time.Second, Clock: clk.Now, Timer: tm.Start})
	tk, err := q.Acquire(context.Background(), Normal, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	errs := make(chan error, 1)
	go func() {
		_, err := q.Acquire(context.Background(), Normal, 0)
		errs <- err
	}()
	waitForDepth(t, q, 1)
	tm.Fire(0)
	if err := <-errs; !errors.Is(err, ErrOverdue) {
		t.Fatalf("waiter err = %v, want ErrOverdue", err)
	}
	if got := q.Depth(); got != 0 {
		t.Fatalf("depth after drop = %d, want 0", got)
	}
	tk.Release()
	if got := q.Running(); got != 0 {
		t.Fatalf("running = %d, want 0", got)
	}
	if c := q.Counters(); c.SojournDropped != 1 {
		t.Fatalf("counters = %+v, want SojournDropped 1", c)
	}
}

func TestQueueLateGrantIsDropped(t *testing.T) {
	clk := newManualClock()
	tm := &manualTimer{}
	q := NewQueue(QueueConfig{Slots: 1, MaxQueue: 4, MaxWait: time.Second, Clock: clk.Now, Timer: tm.Start})
	tk, err := q.Acquire(context.Background(), Normal, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	errs := make(chan error, 1)
	go func() {
		_, err := q.Acquire(context.Background(), Normal, 0)
		errs <- err
	}()
	waitForDepth(t, q, 1)
	// The slot frees only after the waiter's sojourn already exceeds
	// MaxWait: CoDel drops it even though a slot is in hand.
	clk.Advance(2 * time.Second)
	tk.Release()
	if err := <-errs; !errors.Is(err, ErrOverdue) {
		t.Fatalf("late waiter err = %v, want ErrOverdue", err)
	}
	// The abandoned grant's slot is free again.
	tk2, err := q.Acquire(context.Background(), Normal, 0)
	if err != nil {
		t.Fatalf("acquire after late drop: %v", err)
	}
	tk2.Release()
	if c := q.Counters(); c.SojournDropped != 1 {
		t.Fatalf("counters = %+v, want SojournDropped 1", c)
	}
}

func TestQueueCostGate(t *testing.T) {
	q := NewQueue(QueueConfig{Slots: 8, MaxQueue: 8, CapacityPages: 100})
	if _, err := q.Acquire(context.Background(), Normal, 150); !errors.Is(err, ErrTooExpensive) {
		t.Fatalf("over-total acquire err = %v, want ErrTooExpensive", err)
	}
	tk, err := q.Acquire(context.Background(), Normal, 60)
	if err != nil {
		t.Fatalf("acquire 60: %v", err)
	}
	if _, err := q.Acquire(context.Background(), Normal, 50); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("over-remaining acquire err = %v, want ErrNoCapacity", err)
	}
	// Unknown shapes (estimate 0) always fit.
	tk0, err := q.Acquire(context.Background(), Normal, 0)
	if err != nil {
		t.Fatalf("acquire unknown: %v", err)
	}
	tk0.Release()
	tk.Release()
	if got := q.InflightPages(); got != 0 {
		t.Fatalf("inflight pages after release = %v, want 0", got)
	}
	tk2, err := q.Acquire(context.Background(), Normal, 50)
	if err != nil {
		t.Fatalf("acquire 50 after release: %v", err)
	}
	tk2.Release()
	if c := q.Counters(); c.CostRejected != 2 {
		t.Fatalf("counters = %+v, want CostRejected 2", c)
	}
}

func TestQueueContextCancelWhileQueued(t *testing.T) {
	q := NewQueue(QueueConfig{Slots: 1, MaxQueue: 4})
	tk, err := q.Acquire(context.Background(), Normal, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer tk.Release()
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 1)
	go func() {
		_, err := q.Acquire(ctx, Normal, 0)
		errs <- err
	}()
	waitForDepth(t, q, 1)
	cancel()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	if got := q.Depth(); got != 0 {
		t.Fatalf("depth after cancel = %d, want 0", got)
	}
	if c := q.Counters(); c.Canceled != 1 {
		t.Fatalf("counters = %+v, want Canceled 1", c)
	}
}

func TestDeadlineBudgetResolve(t *testing.T) {
	b := DeadlineBudget{Default: 5 * time.Second, Max: 30 * time.Second}
	cases := []struct {
		requested, want time.Duration
	}{
		{0, 5 * time.Second},               // server default
		{2 * time.Second, 2 * time.Second}, // client asks for less
		{time.Minute, 30 * time.Second},    // clamped to max
	}
	for _, c := range cases {
		if got := b.Resolve(c.requested); got != c.want {
			t.Errorf("Resolve(%v) = %v, want %v", c.requested, got, c.want)
		}
	}
	// No default: Max is still a hard ceiling on every query's lifetime.
	open := DeadlineBudget{Max: 10 * time.Second}
	if got := open.Resolve(0); got != 10*time.Second {
		t.Errorf("no-default Resolve(0) = %v, want 10s", got)
	}
	if got := open.Resolve(time.Minute); got != 10*time.Second {
		t.Errorf("no-default Resolve(1m) = %v, want 10s", got)
	}
	// Unbounded: requests pass through.
	if got := (DeadlineBudget{}).Resolve(time.Minute); got != time.Minute {
		t.Errorf("unbounded Resolve(1m) = %v, want 1m", got)
	}
}

func TestLedgerAccountsAndGauges(t *testing.T) {
	l := NewLedger()
	pages := l.Account("pagecache")
	pages.Add(100)
	pages.Add(50)
	pages.Add(-30)
	if got := pages.Bytes(); got != 120 {
		t.Fatalf("pagecache bytes = %d, want 120", got)
	}
	if got := pages.Peak(); got != 150 {
		t.Fatalf("pagecache peak = %d, want 150", got)
	}
	// A double refund clamps at zero instead of going negative.
	rings := l.Account("standingRings")
	rings.Add(10)
	rings.Add(-20)
	if got := rings.Bytes(); got != 0 {
		t.Fatalf("rings bytes = %d, want 0 (clamped)", got)
	}
	l.Gauge("matview", func() int64 { return 77 })
	if same := l.Account("pagecache"); same != pages {
		t.Fatal("Account is not idempotent per name")
	}
	snap := l.Snapshot()
	names := make([]string, len(snap))
	for i, u := range snap {
		names[i] = u.Name
	}
	want := []string{"matview", "pagecache", "standingRings"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("snapshot names = %v, want %v", names, want)
	}
	if got := l.Total(); got != 120+0+77 {
		t.Fatalf("total = %d, want 197", got)
	}
}

// TestCountersDropped: queueDropped counts every refusal kind and nothing
// else — not admissions, cancellations or the peak depth.
func TestCountersDropped(t *testing.T) {
	c := Counters{Admitted: 11, QueueFull: 22, ShedLowPriority: 33, SojournDropped: 44, Canceled: 55, CostRejected: 66, PeakDepth: 7}
	if got := c.Dropped(); got != 22+33+44+66 {
		t.Fatalf("Dropped = %d, want %d", got, 22+33+44+66)
	}
}
