package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// This file is the control-flow half of the lint package's dataflow layer:
// a per-function basic-block CFG over go/ast, built with the standard
// library alone. Analyzers that need flow sensitivity (today mutexguard)
// run a forward dataflow pass over it via CFG.Forward (see dataflow.go)
// instead of re-implementing control flow with ad-hoc AST walks.
//
// The construction is deliberately statement-granular: each Block holds the
// ast.Nodes executed in order (plain statements, plus the condition
// expressions of if/for and the tag of switch), and edges follow Go's
// control constructs — if/else, for (init/cond/post/back edge), range,
// switch with fallthrough, type switch, select, labeled break/continue,
// goto, and early returns. Function literals are NOT inlined: a FuncLit is
// an opaque value in its enclosing function's CFG, and analyzers decide how
// to treat captures (see Escapes in dataflow.go).

// Block is one basic block: a maximal straight-line node sequence.
type Block struct {
	// Index is the block's position in CFG.Blocks (entry is 0).
	Index int
	// Nodes are the statements and control expressions executed in order.
	Nodes []ast.Node
	// Succs are the possible successor blocks.
	Succs []*Block
	// Comment labels the block's role for debugging ("for.head", "if.then").
	Comment string
}

// CFG is one function body's control-flow graph.
type CFG struct {
	Blocks []*Block
	// Entry is the block control enters first.
	Entry *Block
	// Exit is a synthetic empty block every return (and the fall-off end of
	// the body) leads to.
	Exit *Block
	// Defers are the defer statements of the body in source order. Their
	// calls run at every exit; analyzers that care apply them when a path
	// reaches Exit.
	Defers []*ast.DeferStmt
}

// BuildCFG constructs the CFG of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: map[string]*labelInfo{}}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = &Block{Comment: "exit"}
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	// Fall off the end of the body.
	b.jump(b.cfg.Exit)
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

// String renders the CFG for debugging and tests.
func (g *CFG) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "b%d(%s):", blk.Index, blk.Comment)
		for _, s := range blk.Succs {
			fmt.Fprintf(&sb, " ->b%d", s.Index)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

type labelInfo struct {
	target *Block // goto target (start of the labeled statement)
	// brk/cont are the break/continue targets while the labeled loop or
	// switch is being built.
	brk, cont *Block
}

type cfgBuilder struct {
	cfg *CFG
	cur *Block // nil while building unreachable code

	breaks    []*Block
	continues []*Block
	labels    map[string]*labelInfo

	// fallthroughTo is the next case body while building switch clauses.
	fallthroughTo *Block
	// pendingLabel, when non-nil, adopts the break/continue targets of the
	// next loop or switch pushed (labeled-statement resolution).
	pendingLabel *labelInfo
}

func (b *cfgBuilder) newBlock(comment string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Comment: comment}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// jump adds an edge from the current block to dst (no-op when unreachable).
func (b *cfgBuilder) jump(dst *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, dst)
	}
	b.cur = nil
}

// startBlock makes dst the current block.
func (b *cfgBuilder) startBlock(dst *Block) { b.cur = dst }

// add appends a node to the current block, starting a fresh (unreachable)
// block when control cannot arrive here.
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		head := b.cur
		then := b.newBlock("if.then")
		after := b.newBlock("if.after")
		head.Succs = append(head.Succs, then)
		b.startBlock(then)
		b.stmt(s.Body)
		b.jump(after)
		if s.Else != nil {
			els := b.newBlock("if.else")
			head.Succs = append(head.Succs, els)
			b.startBlock(els)
			b.stmt(s.Else)
			b.jump(after)
		} else {
			head.Succs = append(head.Succs, after)
		}
		b.startBlock(after)

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		after := b.newBlock("for.after")
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		b.jump(head)
		b.startBlock(head)
		if s.Cond != nil {
			b.add(s.Cond)
			head.Succs = append(head.Succs, body, after)
		} else {
			head.Succs = append(head.Succs, body)
		}
		b.pushLoop(after, post, s)
		b.startBlock(body)
		b.stmt(s.Body)
		b.jump(post)
		if s.Post != nil {
			b.startBlock(post)
			b.stmt(s.Post)
			b.jump(head)
		}
		b.popLoop()
		b.startBlock(after)

	case *ast.RangeStmt:
		// The RangeStmt node sits in the loop head: per iteration it
		// (re)defines Key/Value and uses X, which is what iteration-
		// sensitive analyses need to see on the back edge.
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		after := b.newBlock("range.after")
		b.jump(head)
		b.startBlock(head)
		b.add(s)
		head.Succs = append(head.Succs, body, after)
		b.pushLoop(after, head, s)
		b.startBlock(body)
		b.stmt(s.Body)
		b.jump(head)
		b.popLoop()
		b.startBlock(after)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(s.Body.List, nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		// The guard (x := y.(type)) re-defines x per clause; represent it
		// once in the head for def purposes.
		b.switchClauses(s.Body.List, s.Assign)

	case *ast.SelectStmt:
		head := b.cur
		if head == nil {
			head = b.newBlock("select.head")
			b.cur = head
		}
		after := b.newBlock("select.after")
		b.pushBreak(after)
		for _, c := range s.Body.List {
			comm := c.(*ast.CommClause)
			blk := b.newBlock("select.case")
			head.Succs = append(head.Succs, blk)
			b.startBlock(blk)
			if comm.Comm != nil {
				b.stmt(comm.Comm)
			}
			b.stmtList(comm.Body)
			b.jump(after)
		}
		if len(s.Body.List) == 0 {
			head.Succs = append(head.Succs, after)
		}
		b.popBreak()
		b.cur = nil
		b.startBlock(after)

	case *ast.LabeledStmt:
		// A labeled statement is a goto target; loops/switches under it
		// resolve labeled break/continue through b.labels.
		target := b.newBlock("label." + s.Label.Name)
		b.jump(target)
		b.startBlock(target)
		li := b.labels[s.Label.Name]
		if li == nil {
			li = &labelInfo{}
			b.labels[s.Label.Name] = li
		}
		li.target = target
		b.labeledStmt(s.Label.Name, s.Stmt)

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit)

	case *ast.DeferStmt:
		b.add(s)
		b.cfg.Defers = append(b.cfg.Defers, s)

	default:
		// Plain statements: assignments, declarations, expression
		// statements, go, send, incdec, empty.
		if s != nil {
			if _, ok := s.(*ast.EmptyStmt); !ok {
				b.add(s)
			}
		}
	}
}

// labeledStmt builds s with label resolution for break/continue.
func (b *cfgBuilder) labeledStmt(label string, s ast.Stmt) {
	li := b.labels[label]
	switch s.(type) {
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Record the break/continue targets as the inner statement pushes
		// them: observe the loop's own stack entries via a callback-free
		// trick — build the statement, then fix the label entry inside
		// pushLoop/pushBreak using pendingLabel.
		b.pendingLabel = li
		b.stmt(s)
		b.pendingLabel = nil
	default:
		b.stmt(s)
	}
}

func (b *cfgBuilder) pushLoop(brk, cont *Block, _ ast.Stmt) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
	if b.pendingLabel != nil {
		b.pendingLabel.brk = brk
		b.pendingLabel.cont = cont
		b.pendingLabel = nil
	}
}

func (b *cfgBuilder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

func (b *cfgBuilder) pushBreak(brk *Block) {
	b.breaks = append(b.breaks, brk)
	if b.pendingLabel != nil {
		b.pendingLabel.brk = brk
		b.pendingLabel = nil
	}
}

func (b *cfgBuilder) popBreak() { b.breaks = b.breaks[:len(b.breaks)-1] }

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	switch s.Tok.String() {
	case "break":
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil && li.brk != nil {
				b.jump(li.brk)
				return
			}
		}
		if n := len(b.breaks); n > 0 {
			b.jump(b.breaks[n-1])
			return
		}
		b.cur = nil
	case "continue":
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil && li.cont != nil {
				b.jump(li.cont)
				return
			}
		}
		if n := len(b.continues); n > 0 {
			b.jump(b.continues[n-1])
			return
		}
		b.cur = nil
	case "goto":
		if s.Label != nil {
			li := b.labels[s.Label.Name]
			if li == nil {
				li = &labelInfo{}
				b.labels[s.Label.Name] = li
			}
			if li.target == nil {
				// Forward goto: create the target now; the LabeledStmt
				// will adopt it when reached.
				li.target = b.newBlock("label." + s.Label.Name)
			}
			b.jump(li.target)
			return
		}
		b.cur = nil
	case "fallthrough":
		if b.fallthroughTo != nil {
			b.jump(b.fallthroughTo)
			return
		}
		b.cur = nil
	}
}

// switchClauses builds the clause bodies of a switch or type switch.
// guard, when non-nil, is the type-switch assign statement, represented at
// the top of each clause body (it defines the clause variable).
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, guard ast.Stmt) {
	head := b.cur
	if head == nil {
		head = b.newBlock("switch.head")
		b.cur = head
	}
	after := b.newBlock("switch.after")
	b.pushBreak(after)

	// Pre-create the body blocks so fallthrough can target the next one.
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		bodies[i] = b.newBlock("case.body")
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		head.Succs = append(head.Succs, bodies[i])
		b.startBlock(bodies[i])
		for _, e := range cc.List {
			b.add(e)
		}
		if guard != nil {
			b.add(guard)
		}
		prevFall := b.fallthroughTo
		if i+1 < len(clauses) {
			b.fallthroughTo = bodies[i+1]
		} else {
			b.fallthroughTo = nil
		}
		b.stmtList(cc.Body)
		b.fallthroughTo = prevFall
		b.jump(after)
	}
	if !hasDefault {
		head.Succs = append(head.Succs, after)
	}
	b.popBreak()
	b.cur = nil
	b.startBlock(after)
}
