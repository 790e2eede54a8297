package nalg

import (
	"fmt"
	"sync"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
)

// Pipelined-evaluation defaults.
const (
	// DefaultWorkers is the number of concurrent follow-link fetch tasks of
	// one pipelined evaluation, and the number of new URLs in each.
	DefaultWorkers = 8
	// DefaultBatchSize is the tuple granularity of the streams: smaller
	// batches pipeline more aggressively, larger batches amortize overhead.
	DefaultBatchSize = 64
)

// EvalOptions tunes plan evaluation.
type EvalOptions struct {
	// Pipelined selects the streaming parallel evaluator: operators are
	// connected by tuple-batch channels, Follow issues prefetches as soon
	// as input batches arrive, and Join branches run concurrently. The
	// result relation and the number of page accesses are identical to the
	// sequential evaluator's — parallelism only changes wall time.
	Pipelined bool
	// Workers is the pipeline's fan-out (0 means DefaultWorkers): the
	// number of follow-link fetch tasks in flight, and the number of new
	// URLs each task carries, so that a task is one round of the source's
	// batch. What that bounds per query is stated once, at
	// engine.ExecOptions.Workers.
	Workers int
	// BatchSize is the tuple-batch granularity (0 means DefaultBatchSize).
	BatchSize int
	// EstimateCard optionally estimates the output cardinality of a
	// subplan (from site statistics). The pipelined hash join builds on
	// the side with the smaller estimate; without an estimator it builds
	// on the right operand.
	EstimateCard func(Expr) (float64, bool)
}

// EvalWithOptions evaluates a computable expression against a page source,
// either with the sequential evaluator or the pipelined one. Both return
// the same relation (as a set of tuples) and perform the same set of page
// accesses; the pipelined evaluator overlaps fetching, wrapping and local
// computation. A Source used with the pipelined evaluator must tolerate
// concurrent EntryPage/FollowPages calls.
func EvalWithOptions(e Expr, ws *adm.Scheme, src Source, opts EvalOptions) (*nested.Relation, error) {
	if !opts.Pipelined {
		return Eval(e, ws, src)
	}
	if _, err := InferSchema(e, ws); err != nil {
		return nil, err
	}
	if opts.Workers <= 0 {
		opts.Workers = DefaultWorkers
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	p := &pipeline{
		ws:   ws,
		src:  src,
		opts: opts,
		sem:  make(chan struct{}, opts.Workers),
		done: make(chan struct{}),
	}
	out := p.node(e)
	rel := nested.NewRelation(nil)
	for batch := range out {
		for _, t := range batch {
			rel.Insert(t)
		}
	}
	p.wg.Wait()
	if p.err != nil {
		return nil, p.err
	}
	return rel, nil
}

// pipeline is one running dataflow evaluation: a tree of goroutines
// connected by tuple-batch channels, with first-error-wins propagation.
type pipeline struct {
	ws   *adm.Scheme
	src  Source
	opts EvalOptions
	sem  chan struct{} // bounds concurrent follow fetch tasks
	done chan struct{} // closed on the first failure
	once sync.Once
	err  error
	wg   sync.WaitGroup
}

// fail records the first error and unblocks every stage.
func (p *pipeline) fail(err error) {
	p.once.Do(func() {
		p.err = err
		close(p.done)
	})
}

func (p *pipeline) spawn(fn func()) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		fn()
	}()
}

// emit sends one batch downstream, aborting if the pipeline failed. It
// reports whether the send happened.
func (p *pipeline) emit(out chan<- []nested.Tuple, batch []nested.Tuple) bool {
	if len(batch) == 0 {
		return true
	}
	select {
	case out <- batch:
		return true
	case <-p.done:
		return false
	}
}

// emitChunks re-batches and sends a tuple slice downstream, so an Unnest
// blowing one page into hundreds of tuples hands the next stage several
// BatchSize units instead of one. (A downstream Follow cuts its fetch tasks
// finer still, at Workers new URLs each.)
func (p *pipeline) emitChunks(out chan<- []nested.Tuple, tuples []nested.Tuple) bool {
	n := p.opts.BatchSize
	for len(tuples) > 0 {
		k := n
		if k > len(tuples) {
			k = len(tuples)
		}
		if !p.emit(out, tuples[:k:k]) {
			return false
		}
		tuples = tuples[k:]
	}
	return true
}

// node compiles an expression into a running stage producing tuple batches.
func (p *pipeline) node(e Expr) <-chan []nested.Tuple {
	out := make(chan []nested.Tuple)
	switch x := e.(type) {
	case *ExtScan:
		p.spawn(func() {
			defer close(out)
			p.fail(fmt.Errorf("nalg: cannot evaluate external relation %q", x.Relation))
		})

	case *EntryScan:
		p.spawn(func() {
			defer close(out)
			t, err := p.src.EntryPage(x.Scheme, x.URL)
			if err != nil {
				p.fail(fmt.Errorf("nalg: entry point %s: %w", x.Scheme, err))
				return
			}
			p.emit(out, []nested.Tuple{qualifyPage(t, x.EffAlias())})
		})

	case *Unnest, *Select, *Project, *Rename:
		in := p.node(localInput(e))
		op := localOp(e)
		p.spawn(func() {
			defer close(out)
			for batch := range in {
				res, err := op(batch)
				if err != nil {
					p.fail(err)
					return
				}
				if !p.emitChunks(out, res) {
					return
				}
			}
		})

	case *Follow:
		p.followNode(x, out)

	case *Join:
		p.joinNode(x, out)

	default:
		p.spawn(func() {
			defer close(out)
			p.fail(fmt.Errorf("nalg: unknown expression node %T", e))
		})
	}
	return out
}

// localInput returns the operand of a unary local operator.
func localInput(e Expr) Expr {
	switch x := e.(type) {
	case *Unnest:
		return x.In
	case *Select:
		return x.In
	case *Project:
		return x.In
	case *Rename:
		return x.In
	}
	panic("nalg: not a local operator")
}

// localOp compiles a tuple-at-a-time operator into a batch transform.
// These operators distribute over union, so applying them batch by batch
// and deduping once at the sink computes the same set as the sequential
// evaluator; intra-batch duplicates are harmless for the same reason, so
// no relation (with its per-tuple canonical keys) is materialized per
// batch. Per-stage state — the Unnester's shared output names, the
// Renamer's renamed names — lives in the returned closure, which the
// single stage goroutine owns.
func localOp(e Expr) func(batch []nested.Tuple) ([]nested.Tuple, error) {
	switch x := e.(type) {
	case *Unnest:
		var u nested.Unnester
		return func(batch []nested.Tuple) ([]nested.Tuple, error) {
			var out []nested.Tuple
			var err error
			for _, t := range batch {
				out, err = u.Unnest(t, x.Attr, out)
				if err != nil {
					return nil, err
				}
			}
			return out, nil
		}
	case *Select:
		return func(batch []nested.Tuple) ([]nested.Tuple, error) {
			out := make([]nested.Tuple, 0, len(batch))
			for _, t := range batch {
				ok, err := x.Pred.Eval(t)
				if err != nil {
					return nil, err
				}
				if ok {
					out = append(out, t)
				}
			}
			return out, nil
		}
	case *Project:
		return func(batch []nested.Tuple) ([]nested.Tuple, error) {
			out := make([]nested.Tuple, 0, len(batch))
			for _, t := range batch {
				pt, err := t.Project(x.Cols)
				if err != nil {
					return nil, err
				}
				out = append(out, pt)
			}
			return out, nil
		}
	case *Rename:
		r := nested.NewRenamer(x.Map)
		return func(batch []nested.Tuple) ([]nested.Tuple, error) {
			out := make([]nested.Tuple, 0, len(batch))
			for _, t := range batch {
				out = append(out, r.Apply(t))
			}
			return out, nil
		}
	default:
		return func([]nested.Tuple) ([]nested.Tuple, error) {
			return nil, fmt.Errorf("nalg: not a local operator: %T", e)
		}
	}
}

// pageMap is the shared URL → qualified page tuple map a Follow stage's
// fetch tasks fill and its joiner reads.
type pageMap struct {
	mu sync.Mutex
	m  map[string]nested.Tuple
}

func (pm *pageMap) set(url string, t nested.Tuple) {
	pm.mu.Lock()
	pm.m[url] = t
	pm.mu.Unlock()
}

func (pm *pageMap) get(url string) (nested.Tuple, bool) {
	pm.mu.Lock()
	t, ok := pm.m[url]
	pm.mu.Unlock()
	return t, ok
}

// followTask is one sub-batch moving through a Follow stage: its page fetch
// runs asynchronously; the joiner consumes tasks in order, so when task i
// is joined every URL first seen in tasks 0..i has been resolved.
type followTask struct {
	batch   []nested.Tuple
	fetched chan struct{}
}

// followNode streams the follow-link operator: as input batches arrive,
// the distinct not-yet-seen link URLs are prefetched concurrently (bounded
// by the pipeline's worker semaphore) while earlier tasks are being joined
// with their target pages.
func (p *pipeline) followNode(x *Follow, out chan<- []nested.Tuple) {
	in := p.node(x.In)
	tasks := make(chan *followTask, p.opts.Workers)
	pages := &pageMap{m: make(map[string]nested.Tuple)}
	// One qualifier for the whole stage: concurrent fetch tasks share the
	// alias-qualified names slice instead of renaming page by page.
	qual := nested.NewQualifier(x.EffAlias())

	// launch starts one fetch task and queues it for the joiner.
	launch := func(batch []nested.Tuple, urls []string) bool {
		ft := &followTask{batch: batch, fetched: make(chan struct{})}
		if len(urls) == 0 {
			close(ft.fetched)
		} else {
			p.spawn(func() { p.fetchTask(x, urls, pages, qual, ft) })
		}
		select {
		case tasks <- ft:
			return true
		case <-p.done:
			return false
		}
	}

	// Producer: dedup link URLs across batches and cut fetch tasks. A task
	// closes as soon as it holds Workers new URLs, so it is one round of the
	// page source's batch — one round trip — and carries the sub-batch of
	// tuples that introduced them. A tuple whose link an earlier task
	// fetched rides in the current one: the in-order joiner reaches it after
	// that task.
	p.spawn(func() {
		defer close(tasks)
		seen := make(map[string]bool)
		for batch := range in {
			var urls []string
			start := 0
			for i, t := range batch {
				lv, ok := t.Get(x.Link)
				if !ok {
					p.fail(fmt.Errorf("nalg: follow: no column %q", x.Link))
					return
				}
				if lv.IsNull() {
					continue
				}
				u := lv.String()
				if seen[u] {
					continue
				}
				seen[u] = true
				if urls == nil {
					urls = make([]string, 0, p.opts.Workers)
				}
				urls = append(urls, u)
				if len(urls) == p.opts.Workers {
					if !launch(batch[start:i+1:i+1], urls) {
						return
					}
					start, urls = i+1, nil
				}
			}
			if start < len(batch) && !launch(batch[start:], urls) {
				return
			}
		}
	})

	// Joiner: in task order, wait for the task's pages and emit the
	// navigation join of its batch.
	p.spawn(func() {
		defer close(out)
		for ft := range tasks {
			select {
			case <-ft.fetched:
			case <-p.done:
				return
			}
			joined, err := joinFollowBatch(x, ft.batch, pages)
			if err != nil {
				p.fail(err)
				return
			}
			if !p.emitChunks(out, joined) {
				return
			}
		}
	})
}

// fetchTask resolves one task's new URLs into the shared page map.
func (p *pipeline) fetchTask(x *Follow, urls []string, pages *pageMap, qual *nested.Qualifier, ft *followTask) {
	defer close(ft.fetched)
	select {
	case p.sem <- struct{}{}:
	case <-p.done:
		return
	}
	defer func() { <-p.sem }()
	got, err := p.src.FollowPages(x.Target, urls)
	if err != nil && !degradedFollow(err) {
		p.fail(fmt.Errorf("nalg: follow %s: %w", x.Link, err))
		return
	}
	for _, pg := range got {
		u, ok := pg.Get(adm.URLAttr)
		if !ok || u.IsNull() {
			p.fail(fmt.Errorf("nalg: follow %s: target page without URL", x.Link))
			return
		}
		pages.set(u.String(), qual.Apply(pg))
	}
}

// joinFollowBatch expands each tuple of a batch with its target page,
// exactly as the sequential evalFollow does.
func joinFollowBatch(x *Follow, batch []nested.Tuple, pages *pageMap) ([]nested.Tuple, error) {
	out := make([]nested.Tuple, 0, len(batch))
	for _, t := range batch {
		lv, ok := t.Get(x.Link)
		if !ok {
			return nil, fmt.Errorf("nalg: follow: no column %q", x.Link)
		}
		if lv.IsNull() {
			continue
		}
		page, ok := pages.get(lv.String())
		if !ok {
			continue // dangling link: navigation yields nothing for it
		}
		joined, err := t.Concat(page)
		if err != nil {
			return nil, err
		}
		out = append(out, joined)
	}
	return out, nil
}

// joinNode evaluates both operands concurrently — their page fetches
// overlap — hashing the build side incrementally as its batches arrive.
// Probe batches arriving early are buffered; once the build side is
// exhausted they stream through the hash table and out.
func (p *pipeline) joinNode(x *Join, out chan<- []nested.Tuple) {
	lin := p.node(x.L)
	rin := p.node(x.R)
	p.spawn(func() {
		defer close(out)
		buildLeft := p.chooseBuildLeft(x)
		h := nested.NewHashJoiner(x.Conds, buildLeft)
		build, probe := rin, lin
		if buildLeft {
			build, probe = lin, rin
		}
		// Drain both sides at once so neither subtree ever stalls on a
		// full channel; probe batches queue until the hash table is
		// complete.
		var queued [][]nested.Tuple
		probeOpen := true
		for build != nil {
			select {
			case b, ok := <-build:
				if !ok {
					build = nil
					continue
				}
				for _, t := range b {
					if err := h.Build(t); err != nil {
						p.fail(err)
						return
					}
				}
			case b, ok := <-probe:
				if !ok {
					probeOpen = false
					probe = nil
					continue
				}
				queued = append(queued, b)
			case <-p.done:
				return
			}
		}
		probeBatch := func(b []nested.Tuple) bool {
			var res []nested.Tuple
			var err error
			for _, t := range b {
				res, err = h.ProbeAppend(t, res)
				if err != nil {
					p.fail(err)
					return false
				}
			}
			return p.emitChunks(out, res)
		}
		for _, b := range queued {
			if !probeBatch(b) {
				return
			}
		}
		if probeOpen {
			for b := range probe {
				if !probeBatch(b) {
					return
				}
			}
		}
	})
}

// chooseBuildLeft picks the hash-join build side from estimated
// cardinalities when available (the smaller estimated side), defaulting to
// the right operand like Relation.Join's tie-break.
func (p *pipeline) chooseBuildLeft(x *Join) bool {
	if p.opts.EstimateCard == nil {
		return false
	}
	lc, lok := p.opts.EstimateCard(x.L)
	rc, rok := p.opts.EstimateCard(x.R)
	return lok && rok && lc < rc
}
