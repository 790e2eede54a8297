package rewrite

import (
	"fmt"
	"strings"

	"ulixes/internal/adm"
	"ulixes/internal/nalg"
	"ulixes/internal/nested"
)

// ruleNames maps each single rule to its display name.
var ruleNames = []struct {
	r    Rule
	name string
}{
	{Rule3, "Rule 3"},
	{Rule4, "Rule 4"},
	{Rule5, "Rule 5"},
	{Rule6, "Rule 6"},
	{Rule7, "Rule 7"},
	{Rule8, "Rule 8"},
	{Rule9, "Rule 9"},
	{RulePushJoin, "push-join"},
}

// String renders a rule set, e.g. "Rule 6" or "Rule 3|Rule 5".
func (r Rule) String() string {
	var parts []string
	for _, rn := range ruleNames {
		if r.Has(rn.r) {
			parts = append(parts, rn.name)
		}
	}
	if len(parts) == 0 {
		return fmt.Sprintf("Rule(%#x)", uint(r))
	}
	return strings.Join(parts, "|")
}

// Precondition records the scheme facts one rule application relied on, so
// the application can be re-validated independently of the matching code
// that produced it. Structural rules (3, 4, push-join) depend only on plan
// shape, which the plan typechecker re-establishes; the constraint-driven
// rules record here exactly what they read off the scheme:
//
//   - Rule 5 drops a navigation because the link is declared non-optional;
//   - Rules 6 and 7 translate across a link via a declared link constraint;
//   - Rule 8's anchor form matches the pointer column via a link constraint;
//   - Rule 9 additionally needs the pointer inclusion L' ⊆ L and a
//     selection-free covering navigation on the dropped side.
//
// All fields are optional; a zero Precondition validates trivially.
type Precondition struct {
	// Rule is the rule that fired.
	Rule Rule
	// Constraint is the link constraint the rewrite translated across, as
	// read from the scheme at match time.
	Constraint *adm.LinkConstraint
	// NonOptionalLink is the link attribute that must be declared
	// non-optional for the navigation to be droppable (Rule 5).
	NonOptionalLink *adm.AttrRef
	// IncludedSub ⊆ IncludedSuper is the pointer-inclusion the chase
	// relies on (Rule 9).
	IncludedSub, IncludedSuper *adm.AttrRef
	// Covering is the selection-free covering navigation whose extent the
	// chase drops (Rule 9).
	Covering nalg.Expr
}

// Validate re-checks every recorded fact against the scheme. It returns nil
// when the scheme still supports the rewrite; the error names the first
// fact that no longer holds.
func (p *Precondition) Validate(ws *adm.Scheme) error {
	return p.validate(ws, func(e nalg.Expr) bool { return coveringChain(ws, e) })
}

// validate is Validate with the covering-navigation test supplied: the
// rewriter decides it once per navigation (see coveringNav).
func (p *Precondition) validate(ws *adm.Scheme, covering func(nalg.Expr) bool) error {
	if p == nil {
		return nil
	}
	if c := p.Constraint; c != nil {
		got, ok := ws.LinkConstraintFor(c.Link)
		if !ok {
			return fmt.Errorf("rewrite: %s relied on link constraint %s, which the scheme does not declare", p.Rule, c)
		}
		if !got.SrcAttr.Equal(c.SrcAttr) || got.TgtAttr != c.TgtAttr {
			return fmt.Errorf("rewrite: %s relied on link constraint %s, but the scheme declares %s", p.Rule, c, got)
		}
	}
	if ref := p.NonOptionalLink; ref != nil {
		f, err := ws.ResolveField(ref.Scheme, ref.Path)
		if err != nil {
			return fmt.Errorf("rewrite: %s relied on link %s: %v", p.Rule, ref, err)
		}
		if f.Type.Kind != nested.KindLink {
			return fmt.Errorf("rewrite: %s relied on %s being a link, but it is %s", p.Rule, ref, f.Type)
		}
		if f.Optional {
			return fmt.Errorf("rewrite: %s relied on link %s being non-optional, but the scheme declares it optional", p.Rule, ref)
		}
	}
	if p.IncludedSub != nil && p.IncludedSuper != nil {
		if !ws.IncludedIn(*p.IncludedSub, *p.IncludedSuper) {
			return fmt.Errorf("rewrite: %s relied on the inclusion %s ⊆ %s, which the scheme does not imply", p.Rule, p.IncludedSub, p.IncludedSuper)
		}
	}
	if p.Covering != nil && !covering(p.Covering) {
		return fmt.Errorf("rewrite: %s relied on %s being a covering navigation", p.Rule, p.Covering)
	}
	return nil
}

// Application is the audit record of one rule firing: the site it fired at,
// what it produced, and the precondition it relied on (validated at
// application time).
type Application struct {
	// Rule is the rule that fired.
	Rule Rule
	// From is the node the rule matched; To is its replacement.
	From, To nalg.Expr
	// Pre is the recorded precondition; nil for purely structural rules.
	Pre *Precondition
}

// validated filters rule results to those whose precondition still holds
// against the scheme, recording the audit trail when enabled. Rules only
// emit rewrites they just established, so a validation failure here means
// the matching code and the recorded precondition disagree — a rule bug;
// the rewrite is dropped rather than propagated.
func (rw *Rewriter) validated(at nalg.Expr, results []result) []result {
	out := results[:0]
	for _, r := range results {
		if err := r.pre.validate(rw.WS, rw.coveringNav); err != nil {
			continue
		}
		if rw.RecordAudit {
			rw.audit = append(rw.audit, Application{Rule: r.rule, From: at, To: r.e, Pre: r.pre})
		}
		out = append(out, r)
	}
	return out
}

// Audit returns the applications recorded since the rewriter was created.
// Recording is off unless RecordAudit is set (enumeration fires rules tens
// of thousands of times).
func (rw *Rewriter) Audit() []Application { return rw.audit }
