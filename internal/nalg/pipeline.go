package nalg

import (
	"fmt"
	"reflect"
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
	// Pipelined selects the streaming parallel evaluator: the stages that
	// can wait for the page source — entry scans, follows, joins — are
	// goroutines connected by tuple-batch channels, and the local operators
	// between them run inside the stage that consumes their output. Follow
	// resolves the pages the source has at once on its producer and
	// issues fetch tasks for the rest as soon as input batches arrive, and
	// Join branches run concurrently. The result relation and the number of
	// page accesses are identical to the sequential evaluator's —
	// parallelism only changes wall time.
	Pipelined bool
	// Workers is the pipeline's fan-out (0 means DefaultWorkers): the
	// number of follow-link fetch tasks in flight, and the number of new
	// URLs a follow cuts a task at, so that a task is one round of the
	// source's batch. What that bounds per query is stated once, at
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
// concurrent EntryPage/FollowPages calls. A pipelined evaluation is Prepare
// followed by Run.
func EvalWithOptions(e Expr, ws *adm.Scheme, src Source, opts EvalOptions) (*nested.Relation, error) {
	if !opts.Pipelined {
		return Eval(e, ws, src)
	}
	p, err := Prepare(e, ws, opts.EstimateCard)
	if err != nil {
		return nil, err
	}
	return p.Run(e, src, opts)
}

// Prepared is a plan's per-shape execution work, done once: the schema
// inference that validates the plan, each hash join's build side, chosen
// from estimated cardinalities, and the columns each row-building stage
// must keep. Run executes the plan it was prepared from, or any plan of the
// same shape — the same tree with other selection constants, as the plan
// cache binds them — repeating none of it. A Prepared is immutable and safe
// for concurrent Runs.
type Prepared struct {
	ws    *adm.Scheme
	nodes []prepNode // one per plan node, in preorder
}

// prepNode is one plan node's share of a Prepared.
type prepNode struct {
	op        reflect.Type // the node's operator, to check Run's plan against
	buildLeft bool         // Join: hash the left operand
	// keep is what an Unnest, Follow or Join stage keeps of the rows it
	// builds: the columns some operator above reads, or that the plan
	// outputs. Dropping the rest as the rows are built is what saves the
	// copying; nil keeps every column.
	keep nested.Columns
}

// Prepare does e's execution work against ws. estimateCard, when non-nil,
// estimates a subplan's output cardinality, and each join builds its hash
// table on the side with the smaller estimate; without it (or without an
// estimate for both sides) a join builds on its right operand, like
// Relation.Join's tie-break.
//
// Column liveness runs top-down over the inferred schemas: the root needs
// all its columns; a projection needs its list, a selection its
// predicate's attributes beyond what its consumer needs, a rename the
// originals of the needed names, and unnest, follow and join the needed
// columns of each operand plus the list, link or condition columns they
// read. Since only columns no operator reads are dropped, and rows are
// deduplicated only at the sink, the answer is the one the full rows give.
func Prepare(e Expr, ws *adm.Scheme, estimateCard func(Expr) (float64, bool)) (*Prepared, error) {
	pr := &preparer{p: &Prepared{ws: ws}, est: estimateCard}
	root, err := pr.infer(e)
	if err != nil {
		return nil, err
	}
	pr.live(e, 0, columnSet(root.Names()))
	return pr.p, nil
}

// preparer carries Prepare's two passes: the bottom-up inference and the
// top-down liveness, which reads the schemas the first pass kept.
type preparer struct {
	p       *Prepared
	est     func(Expr) (float64, bool)
	schemas []*Schema // per node, in preorder
}

func (pr *preparer) infer(e Expr) (*Schema, error) {
	i := len(pr.p.nodes)
	pr.p.nodes = append(pr.p.nodes, prepNode{op: reflect.TypeOf(e)})
	pr.schemas = append(pr.schemas, nil)
	kids := e.Children()
	in := make([]*Schema, len(kids))
	for k, kid := range kids {
		s, err := pr.infer(kid)
		if err != nil {
			return nil, err
		}
		in[k] = s
	}
	s, err := InferNode(e, pr.p.ws, in)
	if err != nil {
		return nil, err
	}
	pr.schemas[i] = s
	if j, ok := e.(*Join); ok && pr.est != nil {
		lc, lok := pr.est(j.L)
		rc, rok := pr.est(j.R)
		pr.p.nodes[i].buildLeft = lok && rok && lc < rc
	}
	return s, nil
}

// live records what node i (e) keeps, given the columns its consumer
// needs, recurses into its operands with the columns they must deliver,
// and returns the index of the node after e's subtree.
func (pr *preparer) live(e Expr, i int, need nested.Columns) int {
	next := i + 1
	switch e.(type) {
	case *Unnest, *Follow, *Join:
		for _, n := range pr.schemas[i].Names() {
			if !need[n] {
				pr.p.nodes[i].keep = need
				break
			}
		}
	}
	switch x := e.(type) {
	case *Unnest:
		next = pr.live(x.In, next, pr.operandNeeds(next, need, x.Attr))
	case *Follow:
		next = pr.live(x.In, next, pr.operandNeeds(next, need, x.Link))
	case *Join:
		l, r := make([]string, len(x.Conds)), make([]string, len(x.Conds))
		for k, c := range x.Conds {
			l[k], r[k] = c.Left, c.Right
		}
		next = pr.live(x.L, next, pr.operandNeeds(next, need, l...))
		next = pr.live(x.R, next, pr.operandNeeds(next, need, r...))
	case *Select:
		in := columnSet(predAttrs(x.Pred, nil))
		for n := range need {
			in[n] = true
		}
		next = pr.live(x.In, next, in)
	case *Project:
		next = pr.live(x.In, next, columnSet(x.Cols))
	case *Rename:
		in := nested.Columns{}
		for _, n := range pr.schemas[next].Names() {
			out := n
			if nn, ok := x.Map[n]; ok {
				out = nn
			}
			if need[out] {
				in[n] = true
			}
		}
		next = pr.live(x.In, next, in)
	}
	return next
}

// operandNeeds is what operand node i must deliver: the needed columns it
// has, plus the ones its consumer reads itself.
func (pr *preparer) operandNeeds(i int, need nested.Columns, reads ...string) nested.Columns {
	in := columnSet(reads)
	for _, n := range pr.schemas[i].Names() {
		if need[n] {
			in[n] = true
		}
	}
	return in
}

func columnSet(names []string) nested.Columns {
	c := make(nested.Columns, len(names))
	for _, n := range names {
		c[n] = true
	}
	return c
}

// Run evaluates e, a plan of the shape p was prepared from, with the
// pipelined evaluator; opts supplies Workers and BatchSize.
func (p *Prepared) Run(e Expr, src Source, opts EvalOptions) (*nested.Relation, error) {
	if opts.Workers <= 0 {
		opts.Workers = DefaultWorkers
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	pl := &pipeline{
		ws:   p.ws,
		prep: p,
		src:  src,
		opts: opts,
		sem:  make(chan struct{}, opts.Workers),
		done: make(chan struct{}),
	}
	// The sink is the root stream's consumer: the local operators at the
	// top of the plan run here, on the caller's goroutine.
	out := pl.node(e)
	rel := nested.NewRelation(nil)
	for batch := range out.ch {
		res, err := out.apply(batch)
		if err != nil {
			pl.fail(err)
			break
		}
		for _, t := range res {
			rel.Insert(t)
		}
	}
	pl.wg.Wait()
	if pl.err != nil {
		return nil, pl.err
	}
	return rel, nil
}

// pipeline is one running dataflow evaluation: a tree of goroutines
// connected by tuple-batch channels, with first-error-wins propagation.
// Only work that can wait for the page source gets a goroutine: an entry
// scan, a follow stage's producer and joiner, a fetch task for the URLs
// the source cannot give at once, and a join. Local operators run inside
// the stage that consumes them.
type pipeline struct {
	ws   *adm.Scheme
	prep *Prepared
	next int // nodes compiled so far: the next one's preorder index
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

// emitChunks re-batches and sends a stage's output downstream, so a join's
// matches or a follow task carrying a whole unnested page reach the
// consumer as several BatchSize units it can start on, and the local
// operators fused into that consumer run a batch at a time. (A downstream
// Follow cuts its fetch tasks finer still, at Workers new URLs each.)
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

// stream is a plan node's output as its one consumer reads it: the batches
// of the nearest goroutine stage below the node, and the local operators
// between that stage and the node, composed into op (nil when there are
// none), which the consumer applies to each batch it receives.
type stream struct {
	ch <-chan []nested.Tuple
	op localOp
}

// apply runs the stream's local operators over one received batch.
func (s stream) apply(batch []nested.Tuple) ([]nested.Tuple, error) {
	if s.op == nil {
		return batch, nil
	}
	return s.op(batch)
}

// then is the stream with op applied after its local operators.
func (s stream) then(op localOp) stream {
	first := s.op
	if first == nil {
		return stream{ch: s.ch, op: op}
	}
	return stream{ch: s.ch, op: func(batch []nested.Tuple) ([]nested.Tuple, error) {
		batch, err := first(batch)
		if err != nil || len(batch) == 0 {
			return nil, err
		}
		return op(batch)
	}}
}

// node compiles an expression into the stream its consumer reads. A local
// operator adds no stage: it is composed onto its operand's stream.
func (p *pipeline) node(e Expr) stream {
	i := p.next
	p.next++
	if i >= len(p.prep.nodes) || p.prep.nodes[i].op != reflect.TypeOf(e) {
		return p.failed(fmt.Errorf("nalg: plan does not have the shape it was prepared for: %s", e))
	}
	pn := p.prep.nodes[i]
	switch x := e.(type) {
	case *EntryScan:
		out := make(chan []nested.Tuple)
		p.spawn(func() {
			defer close(out)
			t, err := p.src.EntryPage(x.Scheme, x.URL)
			if err != nil {
				p.fail(fmt.Errorf("nalg: entry point %s: %w", x.Scheme, err))
				return
			}
			p.emit(out, []nested.Tuple{qualifyPage(t, x.EffAlias())})
		})
		return stream{ch: out}

	case *Unnest, *Select, *Project, *Rename:
		return p.node(localInput(e)).then(compileLocal(e, pn.keep))

	case *Follow:
		return p.followNode(x, pn.keep)

	case *Join:
		return p.joinNode(x, pn)
	}
	return p.failed(fmt.Errorf("nalg: unknown expression node %T", e))
}

// failed fails the pipeline and returns an empty stream.
func (p *pipeline) failed(err error) stream {
	p.fail(err)
	ch := make(chan []nested.Tuple)
	close(ch)
	return stream{ch: ch}
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

// localOp is a local operator — Unnest, Select, Project or Rename —
// compiled into a batch transform. Its per-operator state — the Unnester's
// shared output names, the Projector's column positions, the Renamer's
// renamed names — lives in the closure, which one goroutine owns: the one
// consuming the operator's stream, a follow producer, a join, or Run's
// sink. Each stream has exactly one consumer, so no closure is shared.
type localOp func(batch []nested.Tuple) ([]nested.Tuple, error)

// compileLocal compiles a local operator. These operators distribute over
// union, so applying them batch by batch and deduping once at the sink
// computes the same set as the sequential evaluator; intra-batch duplicates
// are harmless for the same reason, so no relation (with its per-tuple
// canonical keys) is materialized per batch.
func compileLocal(e Expr, keep nested.Columns) localOp {
	switch x := e.(type) {
	case *Unnest:
		u := nested.Unnester{Keep: keep}
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
		pr := nested.NewProjector(x.Cols)
		return func(batch []nested.Tuple) ([]nested.Tuple, error) {
			out := make([]nested.Tuple, 0, len(batch))
			for _, t := range batch {
				pt, err := pr.Apply(t)
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
// producer and fetch tasks fill and its joiner reads.
type pageMap struct {
	mu sync.Mutex
	m  map[string]nested.Tuple
}

// add qualifies a target page and files it under its own URL, as the
// sequential evalFollow does.
func (pm *pageMap) add(x *Follow, qual *nested.Qualifier, pg nested.Tuple) error {
	u, ok := pg.Get(adm.URLAttr)
	if !ok || u.IsNull() {
		return fmt.Errorf("nalg: follow %s: target page without URL", x.Link)
	}
	t := qual.Apply(pg)
	pm.mu.Lock()
	pm.m[u.String()] = t
	pm.mu.Unlock()
	return nil
}

func (pm *pageMap) get(url string) (nested.Tuple, bool) {
	pm.mu.Lock()
	t, ok := pm.m[url]
	pm.mu.Unlock()
	return t, ok
}

// followTask is one sub-batch moving through a Follow stage: the joiner
// consumes tasks in order, so when task i is joined every URL first seen in
// tasks 0..i has been resolved. fetched closes once the task's pages are in
// the page map.
type followTask struct {
	batch   []nested.Tuple
	fetched <-chan struct{}
}

// resolved is the fetched channel of every task with nothing left to
// fetch: closed once, shared.
var resolved = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// followNode streams the follow-link operator: as input batches arrive,
// the distinct not-yet-seen link URLs are resolved — inline when the source
// has their pages at once, otherwise by fetch tasks running concurrently
// (bounded by the pipeline's worker semaphore) — while earlier tasks are
// being joined with their target pages.
func (p *pipeline) followNode(x *Follow, keep nested.Columns) stream {
	in := p.node(x.In)
	out := make(chan []nested.Tuple)
	tasks := make(chan followTask, p.opts.Workers)
	pages := &pageMap{m: make(map[string]nested.Tuple)}
	// One qualifier for the whole stage: concurrent fetch tasks share the
	// alias-qualified names slice instead of renaming page by page.
	qual := nested.NewQualifier(x.EffAlias())

	// Producer: apply the input's local operators, dedup link URLs across
	// batches and cut tasks. A task closes as soon as it holds Workers new
	// URLs, so its fetch is one round of the page source's batch — one
	// round trip — and carries the sub-batch of tuples that introduced
	// them. A tuple whose link an earlier task resolved rides in the current
	// one: the in-order joiner reaches it after that task.
	p.spawn(func() {
		defer close(tasks)
		seen := make(map[string]bool)
		link := nested.NewColumn(x.Link)
		var urls []string        // the current task's new URLs
		var ready []nested.Tuple // their pages, as the source gives them at once

		// launch queues the current task for the joiner. The pages the
		// source can give without waiting are resolved here, on the
		// producer; only the URLs left get a fetch task, with its goroutine
		// and its semaphore slot, and take the urls buffer with them.
		launch := func(batch []nested.Tuple) bool {
			ft := followTask{batch: batch, fetched: resolved}
			if len(urls) > 0 {
				if ready == nil {
					ready = make([]nested.Tuple, p.opts.Workers)
				}
				n, err := p.src.ReadyPages(x.Target, urls, ready[:len(urls)])
				if err != nil {
					p.fail(fmt.Errorf("nalg: follow %s: %w", x.Link, err))
					return false
				}
				left := urls
				if n > 0 {
					left = urls[:0] // compacted in place: left never overtakes the index read
					for i, u := range urls {
						if ready[i].Arity() == 0 { // left by the source: a page has its URL
							left = append(left, u)
						} else if err := pages.add(x, qual, ready[i]); err != nil {
							p.fail(err)
							return false
						}
					}
				}
				if len(left) > 0 {
					fetched := make(chan struct{})
					ft.fetched = fetched
					p.spawn(func() { p.fetchTask(x, left, pages, qual, fetched) })
					urls = nil
				} else {
					urls = urls[:0]
				}
			}
			select {
			case tasks <- ft:
				return true
			case <-p.done:
				return false
			}
		}

		for batch := range in.ch {
			batch, err := in.apply(batch)
			if err != nil {
				p.fail(err)
				return
			}
			start := 0
			for i, t := range batch {
				lv, ok := link.Get(t)
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
					if !launch(batch[start : i+1 : i+1]) {
						return
					}
					start = i + 1
				}
			}
			if start < len(batch) && !launch(batch[start:]) {
				return
			}
		}
	})

	// Joiner: in task order, wait for the task's pages and emit the
	// navigation join of its batch.
	p.spawn(func() {
		defer close(out)
		j := followJoiner{link: nested.NewColumn(x.Link), cat: nested.Concatenator{Keep: keep}}
		for ft := range tasks {
			select {
			case <-ft.fetched:
			case <-p.done:
				return
			}
			joined, err := j.join(x, ft.batch, pages)
			if err != nil {
				p.fail(err)
				return
			}
			if !p.emitChunks(out, joined) {
				return
			}
		}
	})
	return stream{ch: out}
}

// fetchTask fetches the URLs of one task the source could not give at once
// into the shared page map, holding one of the pipeline's Workers slots.
func (p *pipeline) fetchTask(x *Follow, urls []string, pages *pageMap, qual *nested.Qualifier, fetched chan<- struct{}) {
	defer close(fetched)
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
		if err := pages.add(x, qual, pg); err != nil {
			p.fail(err)
			return
		}
	}
}

// followJoiner is a Follow stage's joiner state: the link column's position
// and the concatenated names and kept columns, resolved once per input
// shape rather than per tuple.
type followJoiner struct {
	link *nested.Column
	cat  nested.Concatenator
}

// join expands each tuple of a batch with its target page, exactly as the
// sequential evalFollow does.
func (j *followJoiner) join(x *Follow, batch []nested.Tuple, pages *pageMap) ([]nested.Tuple, error) {
	out := make([]nested.Tuple, 0, len(batch))
	for _, t := range batch {
		lv, ok := j.link.Get(t)
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
		joined, err := j.cat.Concat(t, page)
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
// exhausted they stream through the hash table and out. The join goroutine
// consumes both operand streams, so it runs their local operators.
func (p *pipeline) joinNode(x *Join, pn prepNode) stream {
	lin := p.node(x.L)
	rin := p.node(x.R)
	out := make(chan []nested.Tuple)
	p.spawn(func() {
		defer close(out)
		h := nested.NewHashJoiner(x.Conds, pn.buildLeft)
		h.KeepOnly(pn.keep)
		build, probe := rin, lin
		if pn.buildLeft {
			build, probe = lin, rin
		}
		// Drain both sides at once so neither subtree ever stalls on a
		// full channel; probe batches queue until the hash table is
		// complete.
		var queued [][]nested.Tuple
		bch, pch := build.ch, probe.ch
		for bch != nil {
			select {
			case b, ok := <-bch:
				if !ok {
					bch = nil
					continue
				}
				b, err := build.apply(b)
				if err != nil {
					p.fail(err)
					return
				}
				for _, t := range b {
					if err := h.Build(t); err != nil {
						p.fail(err)
						return
					}
				}
			case b, ok := <-pch:
				if !ok {
					pch = nil
					continue
				}
				queued = append(queued, b)
			case <-p.done:
				return
			}
		}
		probeBatch := func(b []nested.Tuple) bool {
			b, err := probe.apply(b)
			if err != nil {
				p.fail(err)
				return false
			}
			var res []nested.Tuple
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
		if pch != nil {
			for b := range pch {
				if !probeBatch(b) {
					return
				}
			}
		}
	})
	return stream{ch: out}
}
