package nalg

import (
	"fmt"
	"strings"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
)

// Col describes one output column of an expression, with provenance back to
// the ADM scheme. Provenance is what lets the rewrite rules look up link and
// inclusion constraints for a column, and the cost model look up statistics.
type Col struct {
	// Name is the qualified column name, e.g. "ProfPage.Name" or
	// "DeptPage.ProfList.ToProf".
	Name string
	// Type is the column's web type.
	Type nested.Type
	// Scheme is the page-scheme the column originates from; empty for
	// columns with no page provenance.
	Scheme string
	// Path is the attribute path within the origin scheme.
	Path adm.Path
	// Alias is the scan/follow alias that produced the column.
	Alias string
	// Optional reports whether the column may hold nulls.
	Optional bool
}

// Ref returns the ADM attribute reference of the column's origin.
func (c Col) Ref() adm.AttrRef { return adm.AttrRef{Scheme: c.Scheme, Path: c.Path} }

// Schema is the ordered output description of an expression. Columns are
// shared between the schemas of a plan's operators (a navigation step adds
// a few columns to its input's, it does not copy them), so a Col reached
// through a Schema must not be modified.
type Schema struct {
	Cols []*Col
}

// Col returns the named column and whether it exists.
func (s *Schema) Col(name string) (Col, bool) {
	if i := s.Index(name); i >= 0 {
		return *s.Cols[i], true
	}
	return Col{}, false
}

// Index returns the position of the named column, or -1.
func (s *Schema) Index(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// Has reports whether the named column exists.
func (s *Schema) Has(name string) bool { return s.Index(name) >= 0 }

// String renders the schema as a column list.
func (s *Schema) String() string {
	parts := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		parts[i] = c.Name + ": " + c.Type.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// colBlocks shares the column blocks navigation steps add to a schema:
// the columns of a page scanned under an alias, and the element fields an
// unnest promotes. A plan memo keeps one per optimization run, so the
// thousands of candidate plans that follow the same link under the same
// alias point at one block instead of rebuilding its names. The nil
// *colBlocks builds fresh blocks.
type colBlocks struct {
	pages    map[pageKey][]*Col
	promoted map[*Col][]*Col
	renamed  map[renameKey]*Col
	cols     Slab[*Col]
}

type renameKey struct {
	col  *Col
	name string
}

// renamedCol returns the column under a new name.
func (b *colBlocks) renamedCol(c *Col, name string) *Col {
	if b != nil {
		if r, ok := b.renamed[renameKey{c, name}]; ok {
			return r
		}
	}
	r := *c
	r.Name = name
	if b != nil {
		b.renamed[renameKey{c, name}] = &r
	}
	return &r
}

// newCols returns an empty column list with room for n columns.
func (b *colBlocks) newCols(n int) []*Col {
	if b == nil {
		return make([]*Col, 0, n)
	}
	return b.cols.Take(n)[:0]
}

type pageKey struct{ scheme, alias string }

// noBlocks is the nil *colBlocks, for inference outside a memo.
var noBlocks *colBlocks

func newColBlocks() *colBlocks {
	return &colBlocks{
		pages:    make(map[pageKey][]*Col),
		promoted: make(map[*Col][]*Col),
		renamed:  make(map[renameKey]*Col),
	}
}

// reset empties the blocks for a new search. The maps are keyed by column
// pointers and by scheme names, neither of which means the same thing in
// the next search, so they are cleared, not kept.
func (b *colBlocks) reset() {
	clear(b.pages)
	clear(b.promoted)
	clear(b.renamed)
	b.cols.Reset()
}

// pageCols returns the columns of a page-scheme scanned under an alias.
func (b *colBlocks) pageCols(scheme *adm.PageScheme, alias string) []*Col {
	if b != nil {
		if cols, ok := b.pages[pageKey{scheme.Name, alias}]; ok {
			return cols
		}
	}
	block := make([]Col, 0, len(scheme.Attrs)+1)
	block = append(block, Col{
		Name:   alias + "." + adm.URLAttr,
		Type:   nested.Link(scheme.Name),
		Scheme: scheme.Name,
		Path:   adm.Path{adm.URLAttr},
		Alias:  alias,
	})
	for _, f := range scheme.Attrs {
		block = append(block, Col{
			Name:     alias + "." + f.Name,
			Type:     f.Type,
			Scheme:   scheme.Name,
			Path:     adm.Path{f.Name},
			Alias:    alias,
			Optional: f.Optional,
		})
	}
	cols := colPtrs(block)
	if b != nil {
		b.pages[pageKey{scheme.Name, alias}] = cols
	}
	return cols
}

// promotedCols returns the columns unnesting the list column promotes.
func (b *colBlocks) promotedCols(list *Col) []*Col {
	if b != nil {
		if cols, ok := b.promoted[list]; ok {
			return cols
		}
	}
	block := make([]Col, 0, len(list.Type.Elem))
	for _, f := range list.Type.Elem {
		block = append(block, Col{
			Name:     list.Name + "." + f.Name,
			Type:     f.Type,
			Scheme:   list.Scheme,
			Path:     append(append(adm.Path(nil), list.Path...), f.Name),
			Alias:    list.Alias,
			Optional: f.Optional,
		})
	}
	cols := colPtrs(block)
	if b != nil {
		b.promoted[list] = cols
	}
	return cols
}

func colPtrs(block []Col) []*Col {
	cols := make([]*Col, len(block))
	for i := range block {
		cols[i] = &block[i]
	}
	return cols
}

// hasAliasPrefix reports whether a column name is qualified by the alias.
func hasAliasPrefix(name, alias string) bool {
	return len(name) > len(alias) && name[len(alias)] == '.' && name[:len(alias)] == alias
}

// sharedName returns a column name present in both lists, if any. Each
// list holds distinct names, so the check is one pass over each side
// rather than a scan of one per column of the other.
func sharedName(l, r []*Col) (string, bool) {
	// An open-addressed table of the left names on the stack; slots hold
	// index+1 into l. Schemas wider than half the table take the map.
	const slots = 256
	if len(l) > slots/2 {
		seen := make(map[string]struct{}, len(l))
		for _, c := range l {
			seen[c.Name] = struct{}{}
		}
		for _, c := range r {
			if _, dup := seen[c.Name]; dup {
				return c.Name, true
			}
		}
		return "", false
	}
	var table [slots]uint8
	for i, c := range l {
		h := nameSlot(c.Name) % slots
		for table[h] != 0 {
			h = (h + 1) % slots
		}
		table[h] = uint8(i + 1)
	}
	for _, c := range r {
		for h := nameSlot(c.Name) % slots; table[h] != 0; h = (h + 1) % slots {
			if l[table[h]-1].Name == c.Name {
				return c.Name, true
			}
		}
	}
	return "", false
}

// repeatedName returns the first column name that occurs twice, if any.
func repeatedName(cols []*Col) (string, bool) {
	if len(cols) <= 16 { // renames sit on narrow projections
		for i, c := range cols {
			for _, prev := range cols[:i] {
				if prev.Name == c.Name {
					return c.Name, true
				}
			}
		}
		return "", false
	}
	seen := make(map[string]struct{}, len(cols))
	for _, c := range cols {
		if _, dup := seen[c.Name]; dup {
			return c.Name, true
		}
		seen[c.Name] = struct{}{}
	}
	return "", false
}

// nameSlot is a constant-time hash of a column name: qualified names of one
// schema differ mostly in length and in their last characters.
func nameSlot(name string) uint {
	n := uint(len(name))
	if n == 0 {
		return 0
	}
	return n*31 + uint(name[0])*7 + uint(name[n/2])*13 + uint(name[n-1])*17
}

// predAttrs is p.Attrs(buf) without the interface call that would force
// buf to the heap for the two predicate shapes conjunctive queries use.
func predAttrs(p nested.Predicate, buf []string) []string {
	switch q := p.(type) {
	case nested.ConstPred:
		return append(buf, q.Attr)
	case nested.AttrPred:
		return append(buf, q.Left, q.Right)
	}
	return p.Attrs(nil)
}

// InferSchema computes the output schema of an expression against a web
// scheme, validating operator applicability along the way (unknown columns,
// unnest of non-lists, follow of non-links, join column collisions, …).
// ExtScan leaves have no inferable schema and are rejected: the caller must
// substitute default navigations first.
func InferSchema(e Expr, ws *adm.Scheme) (*Schema, error) {
	kids := e.Children()
	schemas := make([]*Schema, len(kids))
	for i, k := range kids {
		s, err := InferSchema(k, ws)
		if err != nil {
			return nil, err
		}
		schemas[i] = s
	}
	return InferNode(e, ws, schemas)
}

// InferNode computes the output schema of a single node given the already
// inferred schemas of its children (in Children() order).
func InferNode(e Expr, ws *adm.Scheme, kids []*Schema) (*Schema, error) {
	cols, same, err := inferNode(e, ws, kids, noBlocks)
	if err != nil || same != nil {
		return same, err
	}
	return &Schema{Cols: cols}, nil
}

// typeError is an inference failure, classified the way Check reports it.
type typeError struct {
	kind DiagKind
	msg  string
}

func (e *typeError) Error() string { return "nalg: " + e.msg }

// inferNode returns the node's output columns, or, when the operator passes
// its operand's schema through unchanged, that schema as same. It holds the
// operator typing rules; every failure is a *typeError.
func inferNode(e Expr, ws *adm.Scheme, kids []*Schema, blocks *colBlocks) ([]*Col, *Schema, error) {
	child := func(i int) *Schema { return kids[i] }
	fail := func(kind DiagKind, format string, args ...any) ([]*Col, *Schema, error) {
		return nil, nil, &typeError{kind: kind, msg: fmt.Sprintf(format, args...)}
	}
	switch x := e.(type) {
	case *ExtScan:
		return fail(DiagNotComputable, "external relation %q is not computable; apply Rule 1 (default navigation) first", x.Relation)

	case *EntryScan:
		ps := ws.Page(x.Scheme)
		if ps == nil {
			return fail(DiagUnknownScheme, "unknown page-scheme %q", x.Scheme)
		}
		ep, ok := ws.EntryPoint(x.Scheme)
		if !ok {
			return fail(DiagNotEntryPoint, "page-scheme %q is not an entry point", x.Scheme)
		}
		if x.URL != "" && x.URL != ep.URL {
			return fail(DiagEntryURLMismatch, "entry scan of %q at %q, but the scheme declares %q", x.Scheme, x.URL, ep.URL)
		}
		return blocks.pageCols(ps, x.EffAlias()), nil, nil

	case *Unnest:
		in := child(0)
		at := in.Index(x.Attr)
		if at < 0 {
			return fail(DiagUnknownColumn, "unnest: no column %q in %s", x.Attr, in)
		}
		col := in.Cols[at]
		if col.Type.Kind != nested.KindList {
			return fail(DiagNotList, "unnest: column %q is not a list (type %s)", x.Attr, col.Type)
		}
		promoted := blocks.promotedCols(col)
		cols := blocks.newCols(len(in.Cols) - 1 + len(promoted))
		cols = append(cols, in.Cols[:at]...)
		cols = append(cols, in.Cols[at+1:]...)
		cols = append(cols, promoted...)
		return cols, nil, nil

	case *Follow:
		in := child(0)
		at := in.Index(x.Link)
		if at < 0 {
			return fail(DiagUnknownColumn, "follow: no column %q in %s", x.Link, in)
		}
		col := in.Cols[at]
		if col.Type.Kind != nested.KindLink {
			return fail(DiagNotLink, "follow: column %q is not a link (type %s)", x.Link, col.Type)
		}
		if col.Type.Target != x.Target {
			return fail(DiagLinkTargetMismatch, "follow: link %q targets %q, expression says %q", x.Link, col.Type.Target, x.Target)
		}
		ps := ws.Page(x.Target)
		if ps == nil {
			return fail(DiagUnknownScheme, "follow: unknown target page-scheme %q", x.Target)
		}
		// The page's columns are all qualified by the follow's alias, so
		// only input columns under the same alias can collide with them.
		alias := x.EffAlias()
		page := blocks.pageCols(ps, alias)
		for _, existing := range in.Cols {
			if !hasAliasPrefix(existing.Name, alias) {
				continue
			}
			for _, c := range page {
				if existing.Name == c.Name {
					return fail(DiagDuplicateColumn, "follow: column %q already present; use a distinct alias", c.Name)
				}
			}
		}
		cols := blocks.newCols(len(in.Cols) + len(page))
		cols = append(append(cols, in.Cols...), page...)
		return cols, nil, nil

	case *Select:
		in := child(0)
		var buf [4]string
		for _, a := range predAttrs(x.Pred, buf[:0]) {
			at := in.Index(a)
			if at < 0 {
				return fail(DiagUnknownColumn, "select: no column %q in %s", a, in)
			}
			if !in.Cols[at].Type.Mono() {
				return fail(DiagNotMono, "select: column %q is not mono-valued", a)
			}
		}
		return nil, in, nil

	case *Project:
		in := child(0)
		if len(x.Cols) == 0 {
			return fail(DiagEmptyProjection, "empty projection")
		}
		cols := blocks.newCols(len(x.Cols))[:len(x.Cols)]
		for i, name := range x.Cols {
			at := in.Index(name)
			if at < 0 {
				return fail(DiagUnknownColumn, "project: no column %q in %s", name, in)
			}
			cols[i] = in.Cols[at]
		}
		return cols, nil, nil

	case *Join:
		l, r := child(0), child(1)
		for _, c := range x.Conds {
			li, ri := l.Index(c.Left), r.Index(c.Right)
			if li < 0 {
				return fail(DiagUnknownColumn, "join: no column %q on the left", c.Left)
			}
			if ri < 0 {
				return fail(DiagUnknownColumn, "join: no column %q on the right", c.Right)
			}
			if !l.Cols[li].Type.Mono() || !r.Cols[ri].Type.Mono() {
				return fail(DiagNotMono, "join: condition %s on multi-valued column", c)
			}
		}
		if name, dup := sharedName(l.Cols, r.Cols); dup {
			return fail(DiagDuplicateColumn, "join: column %q on both sides; use distinct aliases", name)
		}
		cols := blocks.newCols(len(l.Cols) + len(r.Cols))
		cols = append(append(cols, l.Cols...), r.Cols...)
		return cols, nil, nil

	case *Rename:
		in := child(0)
		cols := blocks.newCols(len(in.Cols))[:len(in.Cols)]
		for i, c := range in.Cols {
			if nn, ok := x.Map[c.Name]; ok {
				c = blocks.renamedCol(c, nn)
			}
			cols[i] = c
		}
		if name, dup := repeatedName(cols); dup {
			return fail(DiagDuplicateColumn, "rename: duplicate output column %q", name)
		}
		for old := range x.Map {
			if !in.Has(old) {
				return fail(DiagUnknownColumn, "rename: no column %q in %s", old, in)
			}
		}
		return cols, nil, nil

	default:
		return fail(DiagUnknownNode, "unknown expression node %T", e)
	}
}
