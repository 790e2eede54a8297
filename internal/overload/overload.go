// Package overload is the server's survival layer: it decides, before any
// page is touched, whether a query may run now, wait briefly, or must be
// refused — and it tracks the process-wide memory the answering machinery
// pins so one subsystem cannot starve the rest.
//
// The admission Queue replaces a bare semaphore with a bounded FIFO whose
// waiters carry a maximum sojourn (CoDel-style: a request that waited past
// MaxWait is dropped even if a slot frees, so the p99 sojourn of *served*
// requests is bounded by construction rather than by luck). Admission is
// cost-aware: a caller passes the query's estimated page budget (from the
// prepared-plan cache's costed plan) and the queue refuses work whose
// estimate exceeds the capacity left by what is already running — the
// expensive sweep is turned away at the door instead of thrashing every
// in-flight query. Low-priority work gets only half the queue, so bursts of
// sheddable traffic cannot crowd out must-run queries.
//
// The Ledger is the shared byte ledger: each subsystem that retains memory
// on behalf of clients (page store HTML, standing-query delta rings, /watch
// stream buffers, materialized view rows) charges a named account, so
// /stats can show where the process's bytes actually are and backpressure
// (ring drop-oldest, slow-client write deadlines) has a number to act on.
//
// DeadlineBudget clamps per-query deadlines: a server default, a client
// request, and a hard maximum — the client can ask for less time than the
// default but never more than the max.
package overload

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"ulixes/internal/site"
)

// Admission errors. The server maps them to HTTP statuses: ErrQueueFull and
// ErrNoCapacity are retryable (429), ErrShed is degraded-mode refusal (503),
// ErrOverdue is a timeout in queue (503), ErrTooExpensive can never succeed
// under the configured capacity (422).
var (
	// ErrQueueFull means the bounded FIFO is at capacity: the system is
	// already carrying MaxQueue waiters on top of full slots.
	ErrQueueFull = errors.New("overload: admission queue full")
	// ErrShed means a low-priority request was refused to keep queue room
	// for must-run work.
	ErrShed = errors.New("overload: low-priority request shed")
	// ErrOverdue means the request waited longer than MaxWait without
	// being served; serving it now would only add a late answer to an
	// already-backlogged system.
	ErrOverdue = errors.New("overload: queue sojourn exceeded max-wait")
	// ErrNoCapacity means the query's estimated page budget does not fit
	// in the capacity left by in-flight work; it may fit later.
	ErrNoCapacity = errors.New("overload: estimated cost exceeds remaining capacity")
	// ErrTooExpensive means the query's estimated page budget exceeds the
	// total configured capacity: it can never be admitted as asked.
	ErrTooExpensive = errors.New("overload: estimated cost exceeds total capacity")
)

// Priority orders admission classes. Low-priority work is admitted only
// while the queue is under half full, mirroring ulixesd's existing
// shed-while-degraded policy at the new admission layer.
type Priority int

const (
	// Normal is the default class.
	Normal Priority = iota
	// Low marks sheddable work (batch, prefetch, dashboards).
	Low
)

// Timer starts a one-shot timer: it returns the firing channel and a stop
// function. Injectable so tests (and the deterministic experiment harness)
// control when waiters expire.
type Timer func(d time.Duration) (<-chan time.Time, func())

// stdTimer waits on a real timer; production default.
func stdTimer(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTimer(d) //lint:allow nowallclock queue max-wait is real waiting; tests inject a Timer
	return t.C, func() { t.Stop() }
}

// QueueConfig wires an admission queue.
type QueueConfig struct {
	// Slots is the number of queries allowed to run concurrently
	// (minimum 1).
	Slots int
	// MaxQueue bounds how many requests may wait for a slot. 0 means no
	// waiting at all — the pre-existing instant-429 behaviour.
	MaxQueue int
	// MaxWait bounds a waiter's sojourn: a request that has not been
	// granted a slot within MaxWait is dropped (ErrOverdue), and one that
	// is granted a slot after MaxWait has already passed is dropped too —
	// the CoDel rule that keeps served-request latency bounded. 0 means
	// waiters wait until their context ends.
	MaxWait time.Duration
	// CapacityPages, when > 0, is the page-access budget the admitted set
	// may collectively hold: a request whose estimated pages do not fit in
	// the remaining capacity is refused (ErrNoCapacity), and one whose
	// estimate exceeds CapacityPages outright can never run
	// (ErrTooExpensive). Estimates of 0 (unknown shape) always fit.
	CapacityPages float64
	// Clock measures sojourns. Nil defaults to the real clock — NOT the
	// logical test clock, which advances on every reading and would
	// fabricate sojourns.
	Clock site.Clock
	// Timer starts max-wait timers (nil = real timers).
	Timer Timer
}

// Counters tallies admission outcomes.
type Counters struct {
	// Admitted counts requests granted a slot (immediately or after
	// queueing).
	Admitted int
	// QueueFull counts normal-priority requests refused because the FIFO
	// was at MaxQueue.
	QueueFull int
	// ShedLowPriority counts low-priority requests refused because the
	// queue was half full or worse.
	ShedLowPriority int
	// SojournDropped counts waiters dropped for exceeding MaxWait —
	// whether the timer fired first or a slot arrived too late.
	SojournDropped int
	// Canceled counts waiters whose context ended while queued.
	Canceled int
	// CostRejected counts requests refused by the page-capacity gate
	// (ErrNoCapacity and ErrTooExpensive together).
	CostRejected int
	// PeakDepth is the deepest the wait queue has been.
	PeakDepth int
}

// Dropped is the total refused admissions of every kind — what /stats
// reports as queueDropped.
func (c Counters) Dropped() int {
	return c.QueueFull + c.ShedLowPriority + c.SojournDropped + c.CostRejected
}

// waiter is one queued request. The Queue's mu guards all fields after
// enqueue; ch is closed exactly once, under mu, when a slot is granted.
type waiter struct {
	ch      chan struct{}
	pages   float64
	enq     time.Time
	granted bool // guarded by Queue.mu
}

// Queue is the cost-aware bounded admission queue.
type Queue struct {
	cfg QueueConfig

	mu       sync.Mutex
	running  int       // guarded by mu
	waiters  []*waiter // guarded by mu
	inflight float64   // estimated pages held by admitted work; guarded by mu
	counters Counters  // guarded by mu
}

// NewQueue creates an admission queue.
func NewQueue(cfg QueueConfig) *Queue {
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Timer == nil {
		cfg.Timer = stdTimer
	}
	return &Queue{cfg: cfg}
}

// Counters returns a snapshot of the admission outcome tallies.
func (q *Queue) Counters() Counters {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.counters
}

// Depth returns the current number of waiters.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.waiters)
}

// Running returns the number of admitted requests currently holding slots.
func (q *Queue) Running() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.running
}

// InflightPages returns the estimated page budget held by admitted work.
func (q *Queue) InflightPages() float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.inflight
}

// Acquire admits the request or refuses it. estPages is the query's
// estimated page-access budget (0 = unknown, always fits). On success the
// caller must Release the ticket when the query finishes. Acquire blocks at
// most MaxWait (or until ctx ends); an instant grant never blocks.
func (q *Queue) Acquire(ctx context.Context, pri Priority, estPages float64) (*Ticket, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q.mu.Lock()
	if q.cfg.CapacityPages > 0 && estPages > 0 {
		if estPages > q.cfg.CapacityPages {
			q.counters.CostRejected++
			q.mu.Unlock()
			return nil, ErrTooExpensive
		}
		if q.inflight+estPages > q.cfg.CapacityPages {
			q.counters.CostRejected++
			q.mu.Unlock()
			return nil, ErrNoCapacity
		}
	}
	// Fast path: a free slot and nobody ahead of us.
	if q.running < q.cfg.Slots && len(q.waiters) == 0 {
		q.running++
		q.inflight += estPages
		q.counters.Admitted++
		q.mu.Unlock()
		return &Ticket{q: q, pages: estPages}, nil
	}
	limit := q.cfg.MaxQueue
	if pri == Low {
		limit = q.cfg.MaxQueue / 2
	}
	if len(q.waiters) >= limit {
		if pri == Low {
			q.counters.ShedLowPriority++
			q.mu.Unlock()
			return nil, ErrShed
		}
		q.counters.QueueFull++
		q.mu.Unlock()
		return nil, ErrQueueFull
	}
	w := &waiter{ch: make(chan struct{}), pages: estPages, enq: q.cfg.Clock()}
	q.waiters = append(q.waiters, w)
	if d := len(q.waiters); d > q.counters.PeakDepth {
		q.counters.PeakDepth = d
	}
	q.mu.Unlock()

	var fire <-chan time.Time
	if q.cfg.MaxWait > 0 {
		c, stop := q.cfg.Timer(q.cfg.MaxWait)
		defer stop()
		fire = c
	}
	select {
	case <-w.ch:
		soj := q.cfg.Clock().Sub(w.enq)
		if q.cfg.MaxWait > 0 && soj > q.cfg.MaxWait {
			// The CoDel rule: a slot arrived, but too late. Hand it to the
			// next waiter instead of serving a request whose caller has
			// likely given up.
			q.abandon(w, func(c *Counters) *int { return &c.SojournDropped })
			return nil, ErrOverdue
		}
		return &Ticket{q: q, pages: estPages, sojourn: soj}, nil
	case <-fire:
		q.abandon(w, func(c *Counters) *int { return &c.SojournDropped })
		return nil, ErrOverdue
	case <-ctx.Done():
		q.abandon(w, func(c *Counters) *int { return &c.Canceled })
		return nil, ctx.Err()
	}
}

// abandon removes a waiter that will not run — still queued, or granted a
// slot it cannot use (timer raced the grant, or the grant came past
// MaxWait). A granted-then-abandoned waiter's slot goes to the next in line.
func (q *Queue) abandon(w *waiter, counter func(*Counters) *int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	*counter(&q.counters)++
	if w.granted {
		q.running--
		q.inflight -= w.pages
		q.grantLocked()
		return
	}
	for i, x := range q.waiters {
		if x == w {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return
		}
	}
}

// grantLocked hands free slots to waiters in FIFO order.
func (q *Queue) grantLocked() {
	for q.running < q.cfg.Slots && len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		w.granted = true
		q.running++
		q.inflight += w.pages
		q.counters.Admitted++
		close(w.ch)
	}
}

// release returns a served request's slot and estimated pages.
func (q *Queue) release(pages float64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.running--
	q.inflight -= pages
	q.grantLocked()
}

// Ticket is an admitted request's slot. Release must be called exactly when
// the query finishes; it is idempotent.
type Ticket struct {
	q       *Queue
	pages   float64
	sojourn time.Duration
	once    sync.Once
}

// Release returns the slot, granting it to the next waiter.
func (t *Ticket) Release() {
	t.once.Do(func() { t.q.release(t.pages) })
}

// Sojourn reports how long this request waited for its slot (0 for an
// instant grant).
func (t *Ticket) Sojourn() time.Duration { return t.sojourn }

// DeadlineBudget clamps per-query deadlines: the server default applies
// when the client asks for nothing; a client request is honored up to Max.
type DeadlineBudget struct {
	// Default applies when the client requests no deadline (0 = none).
	Default time.Duration
	// Max caps any requested deadline (0 = no cap).
	Max time.Duration
}

// Resolve returns the effective deadline for a request that asked for
// requested (0 = didn't ask). Max is a hard ceiling: it applies even when
// neither the client nor Default asked for anything, so no query outlives
// it. A zero result means "no deadline".
func (b DeadlineBudget) Resolve(requested time.Duration) time.Duration {
	d := requested
	if d <= 0 {
		d = b.Default
	}
	if b.Max > 0 && (d <= 0 || d > b.Max) {
		d = b.Max
	}
	return d
}

// Account is one subsystem's entry in the shared byte ledger. Add is safe
// for concurrent use and satisfies the small ByteMeter interfaces the
// retaining subsystems (pagecache, standing) declare locally.
type Account struct {
	mu    sync.Mutex
	bytes int64 // guarded by mu
	peak  int64 // guarded by mu
}

// Add charges (or, negative, refunds) bytes to the account. The balance is
// clamped at zero so double refunds cannot drive it negative.
func (a *Account) Add(delta int64) {
	a.mu.Lock()
	a.bytes += delta
	if a.bytes < 0 {
		a.bytes = 0
	}
	if a.bytes > a.peak {
		a.peak = a.bytes
	}
	a.mu.Unlock()
}

// Bytes returns the current balance.
func (a *Account) Bytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bytes
}

// Peak returns the highest balance ever held.
func (a *Account) Peak() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// Usage is one ledger row in a Snapshot.
type Usage struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
	Peak  int64  `json:"peak"`
}

// Ledger is the process-wide byte ledger: named accounts charged
// incrementally (Account.Add) plus gauges polled at snapshot time for
// subsystems that already know their own size (the view extents' measured
// bytes).
type Ledger struct {
	mu       sync.Mutex
	accounts map[string]*Account     // guarded by mu
	gauges   map[string]func() int64 // guarded by mu
}

// NewLedger creates an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		accounts: make(map[string]*Account),
		gauges:   make(map[string]func() int64),
	}
}

// Account returns the named account, creating it on first use. Repeated
// calls with the same name return the same account.
func (l *Ledger) Account(name string) *Account {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.accounts[name]
	if a == nil {
		a = &Account{}
		l.accounts[name] = a
	}
	return a
}

// Gauge registers a polled byte source under name; fn is called at
// Snapshot/Total time and must be safe for concurrent use.
func (l *Ledger) Gauge(name string, fn func() int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gauges[name] = fn
}

// Snapshot returns every account and gauge, sorted by name. Gauges report
// their current reading as both Bytes and Peak.
func (l *Ledger) Snapshot() []Usage {
	l.mu.Lock()
	accounts := make(map[string]*Account, len(l.accounts))
	for n, a := range l.accounts {
		accounts[n] = a
	}
	gauges := make(map[string]func() int64, len(l.gauges))
	for n, fn := range l.gauges {
		gauges[n] = fn
	}
	l.mu.Unlock()

	out := make([]Usage, 0, len(accounts)+len(gauges))
	for n, a := range accounts {
		out = append(out, Usage{Name: n, Bytes: a.Bytes(), Peak: a.Peak()})
	}
	for n, fn := range gauges {
		b := fn()
		out = append(out, Usage{Name: n, Bytes: b, Peak: b})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Total sums every account and gauge.
func (l *Ledger) Total() int64 {
	var total int64
	for _, u := range l.Snapshot() {
		total += u.Bytes
	}
	return total
}
