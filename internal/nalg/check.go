package nalg

import (
	"fmt"

	"ulixes/internal/adm"
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
// access. The typing rules are InferNode's: Check walks the plan bottom-up,
// infers each node whose operands typed, and records an inference failure
// as a Diagnostic on that node. A failed node's ancestors are not checked,
// so within one operator chain only the first failure is reported, while
// failures in independent branches of a join are all reported. Beyond
// inference, Check re-validates column provenance where a plan depends on
// it: the (scheme, path) origin of each unnested list column must resolve
// to the declared type, and each followed link's origin must declare the
// follow's target — so a plan produced by a buggy rewrite that, say,
// retargets a follow past its declared link is rejected here rather than
// by a wrong answer at runtime. (Provenance stays out of InferNode because
// the plan memo infers every subexpression it interns.)
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

// check returns the schema of e, or nil when e or one of its operands
// failed to type; the failure is recorded once, on the node that failed.
func (c *checker) check(e Expr) *Schema {
	kids := e.Children()
	in := make([]*Schema, len(kids))
	typed := true
	for i, k := range kids {
		in[i] = c.check(k)
		typed = typed && in[i] != nil
	}
	if !typed {
		return nil
	}
	s, err := InferNode(e, c.ws, in)
	if err != nil {
		te := err.(*typeError)
		c.diags = append(c.diags, Diagnostic{Kind: te.kind, Node: e, Msg: te.msg})
		return nil
	}
	n := len(c.diags)
	switch x := e.(type) {
	case *Unnest:
		col, _ := in[0].Col(x.Attr)
		c.checkProvenance(e, col)
	case *Follow:
		// Re-resolve the link's declared target from its recorded origin:
		// a rewrite bug that retargets a follow shows up here even when the
		// in-schema link type was rewritten consistently.
		col, _ := in[0].Col(x.Link)
		if col.Scheme != "" && len(col.Path) > 0 {
			if declared, err := c.ws.LinkTarget(col.Ref()); err != nil {
				c.errf(DiagBadProvenance, e, "follow: link %q: %v", x.Link, err)
			} else if declared != x.Target {
				c.errf(DiagLinkTargetMismatch, e, "follow: link %q is declared to target %q, expression says %q", x.Link, declared, x.Target)
			}
		}
	}
	if len(c.diags) > n {
		return nil
	}
	return s
}

// CheckCols validates recorded column provenance against the web scheme:
// every column with an origin must resolve to a declaration of the same
// type. Check applies the same test to the list columns it sees unnested;
// the optimizer's candidate tests apply CheckCols to the whole inferred
// schema of every candidate plan, where a buggy rewrite rule really can
// record an origin the scheme does not declare.
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
