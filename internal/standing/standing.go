// Package standing implements standing (continuous) queries over the push
// feed: a client registers a conjunctive query once, the registry derives
// the set of page-schemes the query's navigations can touch (its footprint),
// and whenever a change-feed event lands on that footprint the query is
// re-answered and the difference — added and removed answer tuples — is
// pushed to the subscriber as a delta. Clients consume deltas with a
// long-poll Next (ulixesd wraps it in SSE), acknowledging by sequence
// number, so a slow client misses nothing the ring still holds.
//
// The registry never guesses: deltas are computed by re-running the full
// query through the configured AnswerFunc (the engine's live plan or the
// view-answering path), so every pushed tuple is exactly what a fresh query
// would return at that instant.
package standing

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"ulixes/internal/changefeed"
	"ulixes/internal/cq"
	"ulixes/internal/nalg"
	"ulixes/internal/nested"
	"ulixes/internal/site"
	"ulixes/internal/view"
)

// AnswerFunc computes the current answer of a standing query. It must be
// safe for concurrent use (the registry serializes per subscription, not
// globally).
type AnswerFunc func(q *cq.Query) (*nested.Relation, error)

// DefaultMaxSubs bounds concurrent subscriptions when Config.MaxSubs is 0.
const DefaultMaxSubs = 64

// Ring is how many deltas a subscription retains for slow consumers.
const Ring = 64

// Config wires a registry.
type Config struct {
	// Views resolves external relations to their navigations, for
	// footprint derivation.
	Views *view.Registry
	// Answer re-answers queries; required.
	Answer AnswerFunc
	// MaxSubs caps concurrent subscriptions (0 = DefaultMaxSubs).
	MaxSubs int
	// MaxRingBytes caps the retained delta bytes per subscription (0 =
	// unbounded). When a slow consumer lets deltas pile up past the cap,
	// the oldest are dropped (Counters.RingDropped) — bounded memory
	// instead of one stalled watcher pinning the process. The newest delta
	// always survives, so a late consumer still learns the current state.
	MaxRingBytes int
	// Meter, when non-nil, is charged every subscription's retained ring
	// bytes — the registry's row in a process-wide memory ledger (see
	// internal/overload.Ledger).
	Meter ByteMeter
	// Clock stamps deltas; nil defaults to the deterministic logical clock.
	Clock site.Clock
}

// ByteMeter is the minimal ledger-account surface the registry charges;
// satisfied by overload.Account without importing it.
type ByteMeter interface {
	// Add charges (positive) or refunds (negative) retained bytes.
	Add(delta int64)
}

// Counters tallies the registry's activity.
type Counters struct {
	// Subscribes counts accepted subscriptions.
	Subscribes int `json:"subscribes"`
	// Unsubscribes counts explicit cancellations.
	Unsubscribes int `json:"unsubscribes,omitempty"`
	// Rejections counts subscriptions refused (parse error, unknown
	// relation, or the MaxSubs cap).
	Rejections int `json:"rejections,omitempty"`
	// Events counts feed events delivered to the registry.
	Events int `json:"events"`
	// Reanswers counts query re-evaluations triggered by footprint hits.
	Reanswers int `json:"reanswers"`
	// AnswerErrors counts re-evaluations that failed (the previous answer
	// is kept; the next footprint hit retries).
	AnswerErrors int `json:"answerErrors,omitempty"`
	// Deltas counts pushed deltas (non-empty diffs plus each initial
	// snapshot).
	Deltas int `json:"deltas"`
	// AddedTuples and RemovedTuples total the tuple-level churn pushed.
	AddedTuples   int `json:"addedTuples"`
	RemovedTuples int `json:"removedTuples"`
	// RingDropped counts deltas dropped from rings before any client
	// consumed them — the count bound or MaxRingBytes trimming the oldest
	// entries under a slow consumer.
	RingDropped int `json:"ringDropped,omitempty"`
	// Live is the number of live subscriptions; RingBytes the retained
	// delta bytes across their rings.
	Live      int   `json:"live"`
	RingBytes int64 `json:"ringBytes,omitempty"`
}

// Delta is one pushed difference. Added and Removed hold canonical tuple
// renderings, sorted, so two clients of the same subscription see
// byte-identical deltas. Seq starts at 1 (the initial snapshot, all Added)
// and increases by 1 per pushed delta.
type Delta struct {
	Seq     int       `json:"seq"`
	At      time.Time `json:"at"`
	Added   []string  `json:"added,omitempty"`
	Removed []string  `json:"removed,omitempty"`
}

// SubInfo describes one live subscription.
type SubInfo struct {
	ID        int      `json:"id"`
	Query     string   `json:"query"`
	Footprint []string `json:"footprint"`
	Seq       int      `json:"seq"`
}

type sub struct {
	id        int
	text      string
	query     *cq.Query
	footprint map[string]bool

	// amu serializes re-answers of this subscription (the answer runs
	// outside the registry lock — it may navigate the site).
	amu sync.Mutex

	// cur is the current answer (canonical tuple renderings). Only reanswer
	// touches it, so amu is its guard; the write additionally holds the
	// registry's mu so seq and the delta ring move atomically with it.
	cur map[string]bool // guarded by amu

	// The registry's mu guards the remaining fields.
	seq       int           // guarded by Registry.mu
	deltas    []Delta       // guarded by Registry.mu
	ringBytes int           // retained delta bytes of this ring; guarded by Registry.mu
	notify    chan struct{} // closed and replaced when a delta arrives; guarded by Registry.mu
}

// Registry holds the live subscriptions. It implements changefeed.Sink, so
// wiring it is one AddSink call.
type Registry struct {
	cfg Config

	mu       sync.Mutex
	subs     map[int]*sub // guarded by mu
	nextID   int          // guarded by mu
	counters Counters     // guarded by mu
}

// New creates a registry. Answer and Views are required.
func New(cfg Config) *Registry {
	if cfg.MaxSubs <= 0 {
		cfg.MaxSubs = DefaultMaxSubs
	}
	if cfg.Clock == nil {
		cfg.Clock = site.LogicalClock()
	}
	return &Registry{cfg: cfg, subs: make(map[int]*sub)}
}

// Counters returns a snapshot of the activity counters, with the live
// subscriptions and their retained ring bytes.
func (r *Registry) Counters() Counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters
	c.Live = len(r.subs)
	for _, s := range r.subs {
		c.RingBytes += int64(s.ringBytes)
	}
	return c
}

// Subs lists the live subscriptions, ordered by ID.
func (r *Registry) Subs() []SubInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SubInfo, 0, len(r.subs))
	for _, s := range r.subs {
		out = append(out, SubInfo{ID: s.id, Query: s.text, Footprint: setToSorted(s.footprint), Seq: s.seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Footprint returns the page-schemes a subscription watches, sorted.
func (r *Registry) Footprint(id int) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.subs[id]
	if s == nil {
		return nil
	}
	return setToSorted(s.footprint)
}

func setToSorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// footprintOf derives the page-schemes any navigation of any relation in
// the query can touch: every EntryScan scheme and every Follow target,
// across ALL default navigations (the optimizer may pick any of them).
func (r *Registry) footprintOf(q *cq.Query) (map[string]bool, error) {
	fp := make(map[string]bool)
	for _, atom := range q.From {
		rel := r.cfg.Views.Relation(atom.Relation)
		if rel == nil {
			return nil, fmt.Errorf("standing: unknown external relation %q", atom.Relation)
		}
		for _, nav := range rel.Navs {
			collectSchemes(nav.Expr, fp)
		}
	}
	return fp, nil
}

func collectSchemes(e nalg.Expr, fp map[string]bool) {
	switch x := e.(type) {
	case *nalg.EntryScan:
		fp[x.Scheme] = true
	case *nalg.Follow:
		fp[x.Target] = true
	}
	for _, c := range e.Children() {
		collectSchemes(c, fp)
	}
}

// Subscribe registers a standing query. The returned ID addresses Next and
// Unsubscribe; the initial snapshot arrives as delta Seq 1 (all tuples
// Added, possibly empty), so clients start from Next(ctx, id, 0).
func (r *Registry) Subscribe(src string) (int, error) {
	reject := func(err error) (int, error) {
		r.mu.Lock()
		r.counters.Rejections++
		r.mu.Unlock()
		return 0, err
	}
	q, err := cq.Parse(src)
	if err != nil {
		return reject(fmt.Errorf("standing: %w", err))
	}
	if err := q.Validate(); err != nil {
		return reject(fmt.Errorf("standing: %w", err))
	}
	fp, err := r.footprintOf(q)
	if err != nil {
		return reject(err)
	}
	r.mu.Lock()
	if len(r.subs) >= r.cfg.MaxSubs {
		r.counters.Rejections++
		r.mu.Unlock()
		return 0, fmt.Errorf("standing: subscription limit (%d) reached", r.cfg.MaxSubs)
	}
	r.nextID++
	s := &sub{
		id:        r.nextID,
		text:      src,
		query:     q,
		footprint: fp,
		cur:       make(map[string]bool),
		notify:    make(chan struct{}),
	}
	r.subs[s.id] = s
	r.counters.Subscribes++
	r.mu.Unlock()
	// The initial snapshot is a forced delta: even an empty answer is
	// pushed, acknowledging the subscription.
	r.reanswer(s, true)
	return s.id, nil
}

// Unsubscribe cancels a subscription, waking any blocked Next callers (they
// return an unknown-subscription error).
func (r *Registry) Unsubscribe(id int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.subs[id]
	if !ok {
		return false
	}
	delete(r.subs, id)
	r.counters.Unsubscribes++
	if r.cfg.Meter != nil {
		r.cfg.Meter.Add(-int64(s.ringBytes))
	}
	s.ringBytes = 0
	close(s.notify)
	return true
}

// OnChange implements changefeed.Sink: events landing on a subscription's
// footprint trigger its re-answer. Touched subscriptions are processed in ID
// order, so concurrent clients observe deltas in a deterministic order.
func (r *Registry) OnChange(ev changefeed.Event) {
	r.mu.Lock()
	r.counters.Events++
	var touched []*sub
	for _, s := range r.subs {
		if s.footprint[ev.Scheme] {
			touched = append(touched, s)
		}
	}
	r.mu.Unlock()
	sort.Slice(touched, func(i, j int) bool { return touched[i].id < touched[j].id })
	for _, s := range touched {
		r.reanswer(s, false)
	}
}

// reanswer re-runs one subscription's query and pushes the diff. force
// pushes a delta even when the diff is empty (the initial snapshot).
func (r *Registry) reanswer(s *sub, force bool) {
	s.amu.Lock()
	defer s.amu.Unlock()
	r.mu.Lock()
	r.counters.Reanswers++
	r.mu.Unlock()
	rel, err := r.cfg.Answer(s.query)
	if err != nil {
		// Keep the previous answer; the next footprint hit retries.
		r.mu.Lock()
		r.counters.AnswerErrors++
		r.mu.Unlock()
		return
	}
	next := make(map[string]bool, rel.Len())
	for _, t := range rel.Tuples() {
		next[t.String()] = true
	}
	var added, removed []string
	for k := range next {
		if !s.cur[k] {
			added = append(added, k)
		}
	}
	for k := range s.cur {
		if !next[k] {
			removed = append(removed, k)
		}
	}
	if len(added) == 0 && len(removed) == 0 && !force {
		return
	}
	sort.Strings(added)
	sort.Strings(removed)

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.subs[s.id] != s {
		return // unsubscribed while answering
	}
	s.cur = next
	s.seq++
	d := Delta{Seq: s.seq, At: r.cfg.Clock(), Added: added, Removed: removed}
	s.deltas = append(s.deltas, d)
	s.ringBytes += deltaBytes(d)
	if r.cfg.Meter != nil {
		r.cfg.Meter.Add(int64(deltaBytes(d)))
	}
	r.trimLocked(s)
	r.counters.Deltas++
	r.counters.AddedTuples += len(added)
	r.counters.RemovedTuples += len(removed)
	close(s.notify)
	s.notify = make(chan struct{})
}

// deltaBytes approximates one delta's retained footprint: its tuple strings
// plus a fixed per-delta overhead for Seq, At and the slice headers.
func deltaBytes(d Delta) int {
	n := 48
	for _, s := range d.Added {
		n += len(s)
	}
	for _, s := range d.Removed {
		n += len(s)
	}
	return n
}

// trimLocked drops a ring's oldest deltas past the count bound and, when
// MaxRingBytes is set, past the byte bound — but never the newest delta, so
// even a hopelessly slow consumer still sees the latest state when it
// returns. Dropped deltas count into Counters.RingDropped and are refunded
// from the meter. Callers hold Registry.mu.
func (r *Registry) trimLocked(s *sub) {
	drop := 0
	bytes := s.ringBytes
	for len(s.deltas)-drop > Ring {
		bytes -= deltaBytes(s.deltas[drop])
		drop++
	}
	for r.cfg.MaxRingBytes > 0 && len(s.deltas)-drop > 1 && bytes > r.cfg.MaxRingBytes {
		bytes -= deltaBytes(s.deltas[drop])
		drop++
	}
	if drop == 0 {
		return
	}
	freed := s.ringBytes - bytes
	s.deltas = append([]Delta(nil), s.deltas[drop:]...)
	s.ringBytes = bytes
	if r.cfg.Meter != nil {
		r.cfg.Meter.Add(-int64(freed))
	}
	r.counters.RingDropped += drop
}

// Next returns the subscription's deltas with Seq > after, blocking until at
// least one is available or the context ends. A canceled context returns the
// context error; an unknown (or meanwhile-unsubscribed) ID returns an error
// immediately.
func (r *Registry) Next(ctx context.Context, id, after int) ([]Delta, error) {
	for {
		r.mu.Lock()
		s, ok := r.subs[id]
		if !ok {
			r.mu.Unlock()
			return nil, fmt.Errorf("standing: unknown subscription %d", id)
		}
		var out []Delta
		for _, d := range s.deltas {
			if d.Seq > after {
				out = append(out, d)
			}
		}
		if len(out) > 0 {
			r.mu.Unlock()
			return out, nil
		}
		ch := s.notify
		r.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
