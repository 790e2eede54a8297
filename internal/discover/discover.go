// Package discover implements the reverse-engineering step the paper
// assumes precedes querying (§3, footnote 2: the scheme "is not the
// product of a forward engineering phase, but rather of a reverse
// engineering phase … conducted by a human designer, with the help of a
// number of tools which semi-automatically analyze the Web"; §3.2's
// footnote suggests a WebSQL-like tool "to verify different paths leading
// to the same page-scheme and check inclusions between sets of links").
//
// Given a crawled site instance, the package verifies the constraints a
// scheme declares and mines the link and inclusion constraints that hold
// extensionally, proposing the ones not yet declared.
package discover

import (
	"fmt"
	"sort"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
)

// Verification reports whether one declared constraint holds on the
// instance.
type Verification struct {
	// Kind is "link" or "inclusion".
	Kind string
	// Constraint is the constraint's rendering.
	Constraint string
	// Holds reports whether no violation was found.
	Holds bool
	// Violations counts the violating occurrences.
	Violations int
	// Example describes the first violation, if any.
	Example string
}

// Verify checks every declared link and inclusion constraint of the
// instance's scheme against the instance, one report per constraint.
func Verify(in *adm.Instance) ([]Verification, error) {
	var out []Verification
	for _, c := range in.Scheme.LinkCs {
		r, err := in.CheckLink(c)
		if err != nil {
			return nil, fmt.Errorf("discover: %s: %v", c, err)
		}
		out = append(out, verification("link", c.String(), r))
	}
	for _, c := range in.Scheme.InclCs {
		out = append(out, verification("inclusion", c.String(), in.CheckInclusion(c)))
	}
	return out, nil
}

func verification(kind, constraint string, r adm.ConstraintCheck) Verification {
	return Verification{
		Kind:       kind,
		Constraint: constraint,
		Holds:      r.Violations == 0,
		Violations: r.Violations,
		Example:    r.Example,
	}
}

// Proposal is one mined constraint with its support (the number of
// witnessing occurrences) and whether the scheme already declares it.
type Proposal struct {
	// Kind is "link" or "inclusion".
	Kind string
	// Link is set for link-constraint proposals.
	Link *adm.LinkConstraint
	// Inclusion is set for inclusion proposals.
	Inclusion *adm.InclusionConstraint
	// Support counts the occurrences that witness the constraint.
	Support int
	// Declared reports whether the scheme already carries the constraint.
	Declared bool
}

// String renders the proposal.
func (p Proposal) String() string {
	tag := ""
	if p.Declared {
		tag = " (declared)"
	}
	if p.Link != nil {
		return fmt.Sprintf("link-constraint %s [support %d]%s", p.Link, p.Support, tag)
	}
	return fmt.Sprintf("inclusion %s [support %d]%s", p.Inclusion, p.Support, tag)
}

// MineLinkConstraints finds every anchor redundancy that holds on the
// instance: for each link attribute L from S to T, each mono-valued source
// attribute A in L's scope and each mono-valued target attribute B of T
// such that adm.Instance.CheckLink finds no violation of A = B, with at
// least minSupport occurrences where both sides are non-null. The
// URL/reference identity (§3.3: "implicit in the notion of reference") is
// excluded.
func MineLinkConstraints(in *adm.Instance, minSupport int) ([]Proposal, error) {
	if minSupport < 1 {
		minSupport = 1
	}
	ws := in.Scheme
	var out []Proposal
	for _, link := range ws.Links() {
		tgt, err := ws.LinkTarget(link)
		if err != nil {
			return nil, err
		}
		tgtAttrs := monoTopAttrs(ws.Page(tgt))
		for _, src := range sourceCandidates(ws.Page(link.Scheme), link.Path) {
			for _, tgtAttr := range tgtAttrs {
				c := adm.LinkConstraint{Link: link, SrcAttr: src, TgtAttr: tgtAttr}
				// An anchor that is not single-valued in scope simply
				// disqualifies the candidate.
				r, err := in.CheckLink(c)
				if err != nil || r.Violations > 0 || r.Support < minSupport {
					continue
				}
				_, declared := declaredLink(ws, c)
				out = append(out, Proposal{Kind: "link", Link: &c, Support: r.Support, Declared: declared})
			}
		}
	}
	sortProposals(out)
	return out, nil
}

func declaredLink(ws *adm.Scheme, c adm.LinkConstraint) (adm.LinkConstraint, bool) {
	for _, d := range ws.LinkCs {
		if d.Link.Scheme == c.Link.Scheme && d.Link.Path.Equal(c.Link.Path) &&
			d.SrcAttr.Equal(c.SrcAttr) && d.TgtAttr == c.TgtAttr {
			return d, true
		}
	}
	return adm.LinkConstraint{}, false
}

// sourceCandidates enumerates the mono-valued attribute paths in scope of a
// link: attributes at each ancestor level of the link's path, including the
// siblings inside the same innermost list.
func sourceCandidates(ps *adm.PageScheme, link adm.Path) []adm.Path {
	var out []adm.Path
	fields := ps.Attrs
	prefix := adm.Path{}
	// Walk down the link path, collecting mono attrs at every level.
	for depth := 0; ; depth++ {
		for _, f := range fields {
			if f.Type.Mono() {
				p := append(append(adm.Path{}, prefix...), f.Name)
				// Exclude the link itself.
				if !p.Equal(link) {
					out = append(out, p)
				}
			}
		}
		if depth >= len(link)-1 {
			break
		}
		step := link[depth]
		var next []nested.Field
		for _, f := range fields {
			if f.Name == step && f.Type.Kind == nested.KindList {
				next = f.Type.Elem
			}
		}
		if next == nil {
			break
		}
		fields = next
		prefix = append(prefix, step)
	}
	return out
}

func monoTopAttrs(ps *adm.PageScheme) []string {
	var out []string
	for _, f := range ps.Attrs {
		if f.Type.Mono() {
			out = append(out, f.Name)
		}
	}
	return out
}

// MineInclusions finds every containment between two link attributes with
// the same target that holds on the instance. Reflexive containments are
// skipped; both directions of an equivalence are reported.
func MineInclusions(in *adm.Instance, minSupport int) ([]Proposal, error) {
	if minSupport < 1 {
		minSupport = 1
	}
	ws := in.Scheme
	links := ws.Links()
	targets := make([]string, len(links))
	for i, ref := range links {
		tgt, err := ws.LinkTarget(ref)
		if err != nil {
			return nil, err
		}
		targets[i] = tgt
	}
	var out []Proposal
	for i, sub := range links {
		for j, super := range links {
			if i == j || targets[i] != targets[j] {
				continue
			}
			c := adm.InclusionConstraint{Sub: sub, Super: super}
			r := in.CheckInclusion(c)
			if r.Violations > 0 || r.Support < minSupport {
				continue
			}
			out = append(out, Proposal{
				Kind:      "inclusion",
				Inclusion: &c,
				Support:   r.Support,
				Declared:  declaredInclusion(ws, c),
			})
		}
	}
	sortProposals(out)
	return out, nil
}

func declaredInclusion(ws *adm.Scheme, c adm.InclusionConstraint) bool {
	for _, d := range ws.InclCs {
		if d.Sub.Scheme == c.Sub.Scheme && d.Sub.Path.Equal(c.Sub.Path) &&
			d.Super.Scheme == c.Super.Scheme && d.Super.Path.Equal(c.Super.Path) {
			return true
		}
	}
	return false
}

func sortProposals(out []Proposal) {
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
}

// Mine runs both miners and returns all proposals.
func Mine(in *adm.Instance, minSupport int) ([]Proposal, error) {
	lcs, err := MineLinkConstraints(in, minSupport)
	if err != nil {
		return nil, err
	}
	incls, err := MineInclusions(in, minSupport)
	if err != nil {
		return nil, err
	}
	return append(lcs, incls...), nil
}
