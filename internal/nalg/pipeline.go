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
	out := pl.node(e)
	rel := nested.NewRelation(nil)
	for batch := range out {
		for _, t := range batch {
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
	i := p.next
	p.next++
	if i >= len(p.prep.nodes) || p.prep.nodes[i].op != reflect.TypeOf(e) {
		p.spawn(func() {
			defer close(out)
			p.fail(fmt.Errorf("nalg: plan does not have the shape it was prepared for: %s", e))
		})
		return out
	}
	pn := p.prep.nodes[i]
	switch x := e.(type) {
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
		op := localOp(e, pn.keep)
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
		p.followNode(x, pn.keep, out)

	case *Join:
		p.joinNode(x, pn, out)

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
// Projector's column positions, the Renamer's renamed names — lives in the
// returned closure, which the single stage goroutine owns.
func localOp(e Expr, keep nested.Columns) func(batch []nested.Tuple) ([]nested.Tuple, error) {
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
func (p *pipeline) followNode(x *Follow, keep nested.Columns, out chan<- []nested.Tuple) {
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
		link := nested.NewColumn(x.Link)
		for batch := range in {
			var urls []string
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
// exhausted they stream through the hash table and out.
func (p *pipeline) joinNode(x *Join, pn prepNode, out chan<- []nested.Tuple) {
	lin := p.node(x.L)
	rin := p.node(x.R)
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
