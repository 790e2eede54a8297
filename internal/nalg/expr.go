// Package nalg implements the Navigational Algebra of §4 of "Efficient
// Queries over Web Views": the classical selection / projection / join
// operators plus two navigational primitives — unnest page (◦), which
// navigates inside the nested structure of a page, and follow link (→),
// which navigates between pages. Expressions are typed against an ADM web
// scheme, printable as the paper's query plans, and evaluable against a page
// source (a remote site or a materialized store).
package nalg

import (
	"strings"
	"sync"
	"sync/atomic"

	"ulixes/internal/nested"
)

// strCache memoizes a node's rendering. Only nodes String is called on
// keep one: a node renders its operands into the same buffer rather than
// through their String, so printing the thousands of candidate plans of an
// enumeration costs one string per plan, not one per distinct subtree.
type strCache struct {
	p atomic.Pointer[string]
}

func (c *strCache) get(e Expr) string {
	if s := c.p.Load(); s != nil {
		return *s
	}
	buf := renderBufs.Get().(*[]byte)
	*buf = render((*buf)[:0], e)
	s := string(*buf)
	renderBufs.Put(buf)
	c.p.Store(&s)
	return s
}

// renderBufs recycles the scratch buffers plans are rendered into.
var renderBufs = sync.Pool{New: func() any { return new([]byte) }}

// nodeMeta is what a node carries besides its operator: bookkeeping that
// never changes what the expression means.
type nodeMeta struct {
	str strCache
	ref memoRef
}

// metaOf returns the bookkeeping of a node, nil for node types with none.
func metaOf(e Expr) *nodeMeta {
	switch x := e.(type) {
	case *EntryScan:
		return &x.meta
	case *Unnest:
		return &x.meta
	case *Follow:
		return &x.meta
	case *Select:
		return &x.meta
	case *Project:
		return &x.meta
	case *Join:
		return &x.meta
	case *Rename:
		return &x.meta
	}
	return nil
}

// render appends e's rendering to b, ignoring e's own cache.
func render(b []byte, e Expr) []byte {
	switch x := e.(type) {
	case *EntryScan:
		return x.appendTo(b)
	case *Unnest:
		return x.appendTo(b)
	case *Follow:
		return x.appendTo(b)
	case *Select:
		return x.appendTo(b)
	case *Project:
		return x.appendTo(b)
	case *Join:
		return x.appendTo(b)
	case *Rename:
		return x.appendTo(b)
	}
	return append(b, e.String()...)
}

// appendExpr appends an operand's rendering: its cached string when it has
// one, and otherwise rendered in place without caching.
func appendExpr(b []byte, e Expr) []byte {
	if m := metaOf(e); m != nil {
		if s := m.str.p.Load(); s != nil {
			return append(b, *s...)
		}
	}
	return render(b, e)
}

// Expr is a navigational algebra expression. Implementations are immutable;
// rewrites build new trees sharing subexpressions.
type Expr interface {
	// Children returns the operand expressions.
	Children() []Expr
	// String renders the expression in the paper's infix notation.
	String() string
}

// ExtScan is a leaf standing for an external relation of the relational
// view (§5). It is not computable: Rule 1 (default navigation) must replace
// it with a navigational expression before evaluation.
type ExtScan struct {
	// Relation is the external relation name, e.g. "Professor".
	Relation string
}

// Children implements Expr.
func (e *ExtScan) Children() []Expr { return nil }

// String implements Expr.
func (e *ExtScan) String() string { return e.Relation }

// EntryScan is a leaf reading the single page of an entry point (§3.1).
// Its alias qualifies the column names of the page attributes.
type EntryScan struct {
	// Scheme is the entry point's page-scheme name.
	Scheme string
	// URL is the entry point's known URL.
	URL string
	// Alias qualifies output columns; defaults to Scheme when empty.
	Alias string

	meta nodeMeta
}

// EffAlias returns the alias, defaulting to the scheme name.
func (e *EntryScan) EffAlias() string {
	if e.Alias != "" {
		return e.Alias
	}
	return e.Scheme
}

// Children implements Expr.
func (e *EntryScan) Children() []Expr { return nil }

// String implements Expr.
func (e *EntryScan) String() string { return e.meta.str.get(e) }

func (e *EntryScan) appendTo(b []byte) []byte {
	return appendAliased(b, e.Scheme, e.Alias)
}

// appendAliased appends a scheme name, followed by the alias in brackets
// when it is not the default.
func appendAliased(b []byte, scheme, alias string) []byte {
	b = append(b, scheme...)
	if alias != "" && alias != scheme {
		b = append(append(append(b, '['), alias...), ']')
	}
	return b
}

// Unnest is the unnest-page operator R ◦ A: it navigates inside a page by
// flattening the list-valued column Attr, promoting element fields to
// columns named Attr + "." + field.
type Unnest struct {
	In Expr
	// Attr is the qualified list column, e.g. "ProfListPage.ProfList".
	Attr string

	meta nodeMeta
}

// Children implements Expr.
func (e *Unnest) Children() []Expr { return []Expr{e.In} }

// String implements Expr.
func (e *Unnest) String() string { return e.meta.str.get(e) }

func (e *Unnest) appendTo(b []byte) []byte {
	b = append(appendParenthesized(b, e.In), "◦"...)
	return append(b, shortAttr(e.Attr)...)
}

// Follow is the follow-link operator R →L P: it expands each input tuple
// with the target page its link column references, i.e. the join
// R ⋈_{R.L = P.URL} P (§4).
type Follow struct {
	In Expr
	// Link is the qualified link column, e.g. "ProfListPage.ProfList.ToProf".
	Link string
	// Target is the target page-scheme name.
	Target string
	// Alias qualifies the target page's columns; defaults to Target.
	Alias string

	meta nodeMeta
}

// EffAlias returns the target alias, defaulting to the target scheme name.
func (e *Follow) EffAlias() string {
	if e.Alias != "" {
		return e.Alias
	}
	return e.Target
}

// Children implements Expr.
func (e *Follow) Children() []Expr { return []Expr{e.In} }

// String implements Expr.
func (e *Follow) String() string { return e.meta.str.get(e) }

func (e *Follow) appendTo(b []byte) []byte {
	b = append(appendParenthesized(b, e.In), "→["...)
	b = append(append(b, shortAttr(e.Link)...), ']')
	return appendAliased(b, e.Target, e.Alias)
}

// Select is the selection operator σ_pred(R).
type Select struct {
	In   Expr
	Pred nested.Predicate

	meta nodeMeta
}

// Children implements Expr.
func (e *Select) Children() []Expr { return []Expr{e.In} }

// String implements Expr.
func (e *Select) String() string { return e.meta.str.get(e) }

func (e *Select) appendTo(b []byte) []byte {
	b = append(appendPred(append(b, "σ["...), e.Pred), "]("...)
	return append(appendExpr(b, e.In), ')')
}

// appendPred appends a predicate's rendering (its String).
func appendPred(b []byte, p nested.Predicate) []byte {
	if q, ok := p.(nested.ConstPred); ok && q.Val != nil {
		b = append(append(b, q.Attr...), q.Op.String()...)
		return append(append(append(b, '\''), q.Val.String()...), '\'')
	}
	return append(b, p.String()...)
}

// Project is the projection operator π_cols(R), with set semantics.
type Project struct {
	In   Expr
	Cols []string

	meta nodeMeta
}

// Children implements Expr.
func (e *Project) Children() []Expr { return []Expr{e.In} }

// String implements Expr.
func (e *Project) String() string { return e.meta.str.get(e) }

func (e *Project) appendTo(b []byte) []byte {
	b = append(b, "π["...)
	for i, c := range e.Cols {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, c...)
	}
	return append(appendExpr(append(b, "]("...), e.In), ')')
}

// Join is the equi-join L ⋈_conds R.
type Join struct {
	L, R  Expr
	Conds []nested.EqCond

	meta nodeMeta
}

// Children implements Expr.
func (e *Join) Children() []Expr { return []Expr{e.L, e.R} }

// String implements Expr.
func (e *Join) String() string { return e.meta.str.get(e) }

func (e *Join) appendTo(b []byte) []byte {
	b = append(appendExpr(append(b, '('), e.L), " ⋈["...)
	for i, c := range e.Conds {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, c.Left...), '='), c.Right...)
	}
	return append(appendExpr(append(b, "] "...), e.R), ')')
}

// Rename renames output columns; it is used to map navigation columns to
// the attribute names of external relations.
type Rename struct {
	In Expr
	// Map is old column name → new name.
	Map map[string]string

	meta nodeMeta
}

// Children implements Expr.
func (e *Rename) Children() []Expr { return []Expr{e.In} }

// String implements Expr.
func (e *Rename) String() string { return e.meta.str.get(e) }

func (e *Rename) appendTo(b []byte) []byte {
	b = append(b, "ρ["...)
	var keys [8]string
	for i, old := range sortedKeys(e.Map, keys[:0]) {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, old...), "→"...), e.Map[old]...)
	}
	return append(appendExpr(append(b, "]("...), e.In), ')')
}

// sortedKeys appends the map's keys to buf, sorted.
func sortedKeys(m map[string]string, buf []string) []string {
	keys := buf
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j-1] > keys[j]; j-- {
			keys[j-1], keys[j] = keys[j], keys[j-1]
		}
	}
	return keys
}

// appendParenthesized appends the operand of a navigation step: bare when
// it is itself a scan or a navigation, in parentheses otherwise.
func appendParenthesized(b []byte, e Expr) []byte {
	switch e.(type) {
	case *EntryScan, *ExtScan, *Unnest, *Follow:
		return appendExpr(b, e)
	default:
		return append(appendExpr(append(b, '('), e), ')')
	}
}

// shortAttr keeps only the final attribute name for display: the paper
// writes R →ToCourse P, not R →R.CourseList.ToCourse P.
func shortAttr(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// Equal reports structural equality of two expressions via their canonical
// rendering.
func Equal(a, b Expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.String() == b.String()
}

// Walk visits the expression tree depth-first, parents after children.
func Walk(e Expr, visit func(Expr)) {
	for _, c := range e.Children() {
		Walk(c, visit)
	}
	visit(e)
}

// Leaves returns the leaf nodes of the expression in left-to-right order.
func Leaves(e Expr) []Expr {
	var out []Expr
	Walk(e, func(x Expr) {
		if len(x.Children()) == 0 {
			out = append(out, x)
		}
	})
	return out
}

// Computable reports whether every leaf of the expression is an entry-point
// scan (§4: "in order to be computable, all navigational paths involved in
// a query must start from an entry point").
func Computable(e Expr) bool {
	switch x := e.(type) {
	case *EntryScan:
		return true
	case *Unnest:
		return Computable(x.In)
	case *Follow:
		return Computable(x.In)
	case *Select:
		return Computable(x.In)
	case *Project:
		return Computable(x.In)
	case *Rename:
		return Computable(x.In)
	case *Join:
		return Computable(x.L) && Computable(x.R)
	}
	kids := e.Children()
	for _, k := range kids {
		if !Computable(k) {
			return false
		}
	}
	return len(kids) > 0
}
