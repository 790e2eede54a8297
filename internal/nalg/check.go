package nalg

import (
	"fmt"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
)

// DiagKind classifies a static plan diagnostic.
type DiagKind int

const (
	// DiagNotComputable: an ExtScan leaf remains — the plan still references
	// an external relation and cannot be evaluated (§4: every navigational
	// path must start from an entry point).
	DiagNotComputable DiagKind = iota
	// DiagUnknownScheme: a scan or follow names a page-scheme the web
	// scheme does not declare.
	DiagUnknownScheme
	// DiagNotEntryPoint: an EntryScan reads a page-scheme with no declared
	// entry point.
	DiagNotEntryPoint
	// DiagEntryURLMismatch: an EntryScan's URL differs from the scheme's
	// declared entry-point URL.
	DiagEntryURLMismatch
	// DiagUnknownColumn: an operator references a column its input does not
	// produce.
	DiagUnknownColumn
	// DiagNotList: unnest applied to a non-list column.
	DiagNotList
	// DiagNotLink: follow applied to a non-link column.
	DiagNotLink
	// DiagLinkTargetMismatch: a follow's stated target page-scheme differs
	// from the link's declared target.
	DiagLinkTargetMismatch
	// DiagBadProvenance: a column's recorded origin (scheme, path) does not
	// resolve in the web scheme, or resolves to a conflicting type.
	DiagBadProvenance
	// DiagNotMono: a selection or join predicate reads a multi-valued
	// column.
	DiagNotMono
	// DiagDuplicateColumn: a follow, join or rename would produce two
	// columns with the same name.
	DiagDuplicateColumn
	// DiagEmptyProjection: a projection with no columns.
	DiagEmptyProjection
	// DiagUnknownNode: an Expr implementation the checker does not know.
	DiagUnknownNode
)

var diagKindNames = map[DiagKind]string{
	DiagNotComputable:      "not-computable",
	DiagUnknownScheme:      "unknown-scheme",
	DiagNotEntryPoint:      "not-entry-point",
	DiagEntryURLMismatch:   "entry-url-mismatch",
	DiagUnknownColumn:      "unknown-column",
	DiagNotList:            "not-list",
	DiagNotLink:            "not-link",
	DiagLinkTargetMismatch: "link-target-mismatch",
	DiagBadProvenance:      "bad-provenance",
	DiagNotMono:            "not-mono",
	DiagDuplicateColumn:    "duplicate-column",
	DiagEmptyProjection:    "empty-projection",
	DiagUnknownNode:        "unknown-node",
}

// String implements fmt.Stringer.
func (k DiagKind) String() string {
	if s, ok := diagKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("DiagKind(%d)", int(k))
}

// Diagnostic is one static typing error found in a plan.
type Diagnostic struct {
	// Kind classifies the error.
	Kind DiagKind
	// Node is the offending expression node.
	Node Expr
	// Msg is the human-readable explanation.
	Msg string
}

// String implements fmt.Stringer.
func (d Diagnostic) String() string {
	if d.Node == nil {
		return fmt.Sprintf("%s: %s", d.Kind, d.Msg)
	}
	return fmt.Sprintf("%s: %s (in %s)", d.Kind, d.Msg, d.Node)
}

// Check statically typechecks a plan against a web scheme, without any page
// access. Unlike InferSchema, which stops at the first error, Check
// accumulates every diagnostic it can establish, recovering where an
// operator's input schema is still known. Beyond the schema-inference
// checks it also re-validates column provenance: the (scheme, path) origin
// recorded on each navigated column must resolve in the ADM scheme to a
// declaration agreeing with the plan — so a plan produced by a buggy
// rewrite that, say, retargets a follow past its declared link is rejected
// here rather than by a wrong answer at runtime.
//
// A nil result means the plan is well-typed; engines use that as the
// pre-execution gate.
func Check(e Expr, ws *adm.Scheme) []Diagnostic {
	c := &checker{ws: ws}
	c.check(e)
	return c.diags
}

type checker struct {
	ws    *adm.Scheme
	diags []Diagnostic
}

func (c *checker) errf(kind DiagKind, node Expr, format string, args ...interface{}) {
	c.diags = append(c.diags, Diagnostic{Kind: kind, Node: node, Msg: fmt.Sprintf(format, args...)})
}

// check computes the schema of e, accumulating diagnostics. It returns nil
// when the schema could not be established; callers skip the checks that
// need it and keep going elsewhere.
func (c *checker) check(e Expr) *Schema {
	switch x := e.(type) {
	case *ExtScan:
		c.errf(DiagNotComputable, e, "external relation %q is not computable; apply Rule 1 (default navigation) first", x.Relation)
		return nil

	case *EntryScan:
		ps := c.ws.Page(x.Scheme)
		if ps == nil {
			c.errf(DiagUnknownScheme, e, "unknown page-scheme %q", x.Scheme)
			return nil
		}
		ep, ok := c.ws.EntryPoint(x.Scheme)
		if !ok {
			c.errf(DiagNotEntryPoint, e, "page-scheme %q is not an entry point", x.Scheme)
		} else if x.URL != "" && x.URL != ep.URL {
			c.errf(DiagEntryURLMismatch, e, "entry scan of %q at %q, but the scheme declares %q", x.Scheme, x.URL, ep.URL)
		}
		return &Schema{Cols: noBlocks.pageCols(ps, x.EffAlias())}

	case *Unnest:
		in := c.check(x.In)
		if in == nil {
			return nil
		}
		at := in.Index(x.Attr)
		if at < 0 {
			c.errf(DiagUnknownColumn, e, "unnest: no column %q in %s", x.Attr, in)
			return nil
		}
		col := in.Cols[at]
		if col.Type.Kind != nested.KindList {
			c.errf(DiagNotList, e, "unnest: column %q is not a list (type %s)", x.Attr, col.Type)
			return nil
		}
		c.checkProvenance(e, *col)
		var cols []*Col
		cols = append(cols, in.Cols[:at]...)
		cols = append(cols, in.Cols[at+1:]...)
		cols = append(cols, noBlocks.promotedCols(col)...)
		return &Schema{Cols: cols}

	case *Follow:
		in := c.check(x.In)
		if in == nil {
			return nil
		}
		col, ok := in.Col(x.Link)
		if !ok {
			c.errf(DiagUnknownColumn, e, "follow: no column %q in %s", x.Link, in)
			return nil
		}
		if col.Type.Kind != nested.KindLink {
			c.errf(DiagNotLink, e, "follow: column %q is not a link (type %s)", x.Link, col.Type)
			return nil
		}
		if col.Type.Target != x.Target {
			c.errf(DiagLinkTargetMismatch, e, "follow: link %q targets %q, expression says %q", x.Link, col.Type.Target, x.Target)
		}
		// Re-resolve the link's declared target from its recorded origin:
		// a rewrite bug that retargets a follow shows up here even when the
		// in-schema link type was rewritten consistently.
		if col.Scheme != "" && len(col.Path) > 0 {
			if declared, err := c.ws.LinkTarget(col.Ref()); err != nil {
				c.errf(DiagBadProvenance, e, "follow: link %q: %v", x.Link, err)
			} else if declared != x.Target {
				c.errf(DiagLinkTargetMismatch, e, "follow: link %q is declared to target %q, expression says %q", x.Link, declared, x.Target)
			}
		}
		ps := c.ws.Page(x.Target)
		if ps == nil {
			c.errf(DiagUnknownScheme, e, "follow: unknown target page-scheme %q", x.Target)
			return nil
		}
		cols := append([]*Col(nil), in.Cols...)
		for _, pc := range noBlocks.pageCols(ps, x.EffAlias()) {
			for _, existing := range cols {
				if existing.Name == pc.Name {
					c.errf(DiagDuplicateColumn, e, "follow: column %q already present; use a distinct alias", pc.Name)
				}
			}
			cols = append(cols, pc)
		}
		return &Schema{Cols: cols}

	case *Select:
		in := c.check(x.In)
		if in == nil {
			return nil
		}
		for _, a := range x.Pred.Attrs(nil) {
			col, ok := in.Col(a)
			if !ok {
				c.errf(DiagUnknownColumn, e, "select: no column %q in %s", a, in)
				continue
			}
			if !col.Type.Mono() {
				c.errf(DiagNotMono, e, "select: column %q is not mono-valued", a)
			}
		}
		return in

	case *Project:
		if len(x.Cols) == 0 {
			c.errf(DiagEmptyProjection, e, "empty projection")
		}
		in := c.check(x.In)
		if in == nil {
			return nil
		}
		var cols []*Col
		for _, name := range x.Cols {
			at := in.Index(name)
			if at < 0 {
				c.errf(DiagUnknownColumn, e, "project: no column %q in %s", name, in)
				continue
			}
			cols = append(cols, in.Cols[at])
		}
		return &Schema{Cols: cols}

	case *Join:
		l, r := c.check(x.L), c.check(x.R)
		for _, cond := range x.Conds {
			var lc, rc Col
			lok, rok := false, false
			if l != nil {
				if lc, lok = l.Col(cond.Left); !lok {
					c.errf(DiagUnknownColumn, e, "join: no column %q on the left", cond.Left)
				}
			}
			if r != nil {
				if rc, rok = r.Col(cond.Right); !rok {
					c.errf(DiagUnknownColumn, e, "join: no column %q on the right", cond.Right)
				}
			}
			if lok && !lc.Type.Mono() {
				c.errf(DiagNotMono, e, "join: condition %s on multi-valued column %q", cond, cond.Left)
			}
			if rok && !rc.Type.Mono() {
				c.errf(DiagNotMono, e, "join: condition %s on multi-valued column %q", cond, cond.Right)
			}
		}
		if l == nil || r == nil {
			return nil
		}
		cols := append([]*Col(nil), l.Cols...)
		for _, rc := range r.Cols {
			for _, existing := range cols {
				if existing.Name == rc.Name {
					c.errf(DiagDuplicateColumn, e, "join: column %q on both sides; use distinct aliases", rc.Name)
				}
			}
			cols = append(cols, rc)
		}
		return &Schema{Cols: cols}

	case *Rename:
		in := c.check(x.In)
		if in == nil {
			return nil
		}
		for old := range x.Map {
			if !in.Has(old) {
				c.errf(DiagUnknownColumn, e, "rename: no column %q in %s", old, in)
			}
		}
		cols := make([]*Col, len(in.Cols))
		seen := make(map[string]bool, len(in.Cols))
		for i, col := range in.Cols {
			if nn, ok := x.Map[col.Name]; ok {
				renamed := *col
				renamed.Name = nn
				col = &renamed
			}
			if seen[col.Name] {
				c.errf(DiagDuplicateColumn, e, "rename: duplicate output column %q", col.Name)
			}
			seen[col.Name] = true
			cols[i] = col
		}
		return &Schema{Cols: cols}

	default:
		c.errf(DiagUnknownNode, e, "unknown expression node %T", e)
		return nil
	}
}

// CheckCols validates recorded column provenance against the web scheme:
// every column with an origin must resolve to a declaration of the same
// type. Check applies this to the schemas it infers itself; the rewrite
// engine applies it to the column maps its rules build by hand, where a
// buggy rule really can record an origin the scheme does not declare.
func CheckCols(cols []*Col, ws *adm.Scheme) []Diagnostic {
	c := &checker{ws: ws}
	for _, col := range cols {
		c.checkProvenance(nil, *col)
	}
	return c.diags
}

// checkProvenance re-resolves a navigated column's recorded (scheme, path)
// origin against the web scheme and compares the declared type with the one
// the plan carries.
func (c *checker) checkProvenance(node Expr, col Col) {
	if col.Scheme == "" || len(col.Path) == 0 {
		return
	}
	declared, err := c.ws.ResolvePath(col.Scheme, col.Path)
	if err != nil {
		c.errf(DiagBadProvenance, node, "column %q: %v", col.Name, err)
		return
	}
	if !declared.Equal(col.Type) {
		c.errf(DiagBadProvenance, node, "column %q carries type %s but %s declares %s", col.Name, col.Type, col.Ref(), declared)
	}
}
