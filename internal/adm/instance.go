package adm

import (
	"fmt"

	"ulixes/internal/nested"
)

// Instance is an instance of a web scheme: one page-relation per
// page-scheme. It is the "ground truth" content of a site, used by the site
// simulator and by constraint checking; the query system itself never sees
// an instance directly — it can only fetch pages by URL.
type Instance struct {
	Scheme *Scheme
	rels   map[string]*nested.Relation
}

// NewInstance creates an empty instance of the scheme, with an empty
// page-relation for every page-scheme.
func NewInstance(s *Scheme) *Instance {
	inst := &Instance{Scheme: s, rels: make(map[string]*nested.Relation)}
	for _, name := range s.PageNames() {
		inst.rels[name] = nested.NewRelation(s.Page(name).TupleType())
	}
	return inst
}

// AddPage inserts a page tuple into the page-relation of the named scheme,
// validating it against the scheme's tuple type.
func (in *Instance) AddPage(scheme string, t nested.Tuple) error {
	ps := in.Scheme.Page(scheme)
	if ps == nil {
		return fmt.Errorf("adm: unknown page-scheme %q", scheme)
	}
	if err := t.CheckAgainst(ps.TupleType()); err != nil {
		return fmt.Errorf("adm: page of %q: %v", scheme, err)
	}
	u, _ := t.Get(URLAttr)
	if u.IsNull() {
		return fmt.Errorf("adm: page of %q with null URL", scheme)
	}
	in.rels[scheme].Insert(t)
	return nil
}

// Relation returns the page-relation of the named scheme, or nil.
func (in *Instance) Relation(scheme string) *nested.Relation { return in.rels[scheme] }

// Page returns the tuple of the page with the given URL in the named
// scheme's relation, if present.
func (in *Instance) Page(scheme, url string) (nested.Tuple, bool) {
	r := in.rels[scheme]
	if r == nil {
		return nested.Tuple{}, false
	}
	for _, t := range r.Tuples() {
		if u, _ := t.Get(URLAttr); !u.IsNull() && u.String() == url {
			return t, true
		}
	}
	return nested.Tuple{}, false
}

// PathValues returns every value reachable at the given path from a page
// tuple, descending through lists. Null intermediate values contribute
// nothing.
func PathValues(t nested.Tuple, path Path) []nested.Value {
	if len(path) == 0 {
		return nil
	}
	v, ok := t.Get(path[0])
	if !ok || v.IsNull() {
		return nil
	}
	if len(path) == 1 {
		return []nested.Value{v}
	}
	lv, ok := v.(nested.ListValue)
	if !ok {
		return nil
	}
	var out []nested.Value
	for _, elem := range lv {
		out = append(out, PathValues(elem, path[1:])...)
	}
	return out
}

// pageByURL builds a URL → tuple index for a page-relation.
func pageByURL(r *nested.Relation) map[string]nested.Tuple {
	idx := make(map[string]nested.Tuple, r.Len())
	for _, t := range r.Tuples() {
		if u, _ := t.Get(URLAttr); !u.IsNull() {
			idx[u.String()] = t
		}
	}
	return idx
}

// Validate checks the instance against the scheme: URL uniqueness (global
// key), entry-point singletons, dangling links, and every declared link and
// inclusion constraint.
func (in *Instance) Validate() error {
	byURL := make(map[string]string) // url -> scheme
	for _, name := range in.Scheme.PageNames() {
		for _, t := range in.rels[name].Tuples() {
			u, _ := t.Get(URLAttr)
			if prev, dup := byURL[u.String()]; dup {
				return fmt.Errorf("adm: URL %q appears in both %q and %q", u, prev, name)
			}
			byURL[u.String()] = name
		}
	}
	for _, ep := range in.Scheme.Entry {
		r := in.rels[ep.Scheme]
		if r.Len() != 1 {
			return fmt.Errorf("adm: entry point %q must have exactly one page, has %d", ep.Scheme, r.Len())
		}
		u, _ := r.Tuples()[0].Get(URLAttr)
		if u.String() != ep.URL {
			return fmt.Errorf("adm: entry point %q has URL %q, scheme declares %q", ep.Scheme, u, ep.URL)
		}
	}
	// Dangling links: every link value must be the URL of a page of the
	// link's target scheme.
	for _, ref := range in.Scheme.Links() {
		tgt, err := in.Scheme.LinkTarget(ref)
		if err != nil {
			return err
		}
		idx := pageByURL(in.rels[tgt])
		for _, t := range in.rels[ref.Scheme].Tuples() {
			for _, v := range PathValues(t, ref.Path) {
				if _, ok := idx[v.String()]; !ok {
					return fmt.Errorf("adm: dangling link %s = %q (no such %s page)", ref, v, tgt)
				}
			}
		}
	}
	for _, c := range in.Scheme.LinkCs {
		r, err := in.CheckLink(c)
		if err != nil {
			return fmt.Errorf("adm: link constraint %s: %v", c, err)
		}
		if r.Violations > 0 {
			return fmt.Errorf("adm: link constraint %s violated: %s", c, r.Example)
		}
	}
	for _, c := range in.Scheme.InclCs {
		if r := in.CheckInclusion(c); r.Violations > 0 {
			return fmt.Errorf("adm: inclusion %s violated: %s", c, r.Example)
		}
	}
	return nil
}

// ConstraintCheck is the outcome of checking one link or inclusion
// constraint against an instance.
type ConstraintCheck struct {
	// Violations counts the occurrences that break the constraint.
	Violations int
	// Example describes the first violation; empty when there is none.
	Example string
	// Support counts the occurrences that witness the constraint: for a
	// link constraint, the (anchor, link) pairs whose anchor and target
	// values are both non-null; for an inclusion, the distinct values of
	// the contained link.
	Support int
}

// CheckLink checks a link constraint extensionally (§3.2): for every
// (anchor, link) pair of the source pages, the page the link points to
// must exist and its target attribute must equal the anchor. A dangling
// link is a violation, and so is a null on one side only. The error
// reports a constraint that cannot be evaluated, such as an anchor that is
// not single-valued in the link's scope.
func (in *Instance) CheckLink(c LinkConstraint) (ConstraintCheck, error) {
	var r ConstraintCheck
	tgt, err := in.Scheme.LinkTarget(c.Link)
	if err != nil {
		return r, err
	}
	idx := pageByURL(in.rels[tgt])
	for _, t := range in.rels[c.Link.Scheme].Tuples() {
		pairs, err := linkAnchorPairs(t, c.Link.Path, c.SrcAttr)
		if err != nil {
			return r, err
		}
		for _, pr := range pairs {
			anchor, link := pr[0], pr[1]
			tgtTuple, ok := idx[link.String()]
			if !ok {
				r.violation("dangling link %s", link)
				continue
			}
			tv, _ := tgtTuple.Get(c.TgtAttr)
			if !scalarEqual(anchor, tv) {
				r.violation("%v ≠ %v at %s", anchor, tv, link)
			} else if !anchor.IsNull() {
				r.Support++
			}
		}
	}
	return r, nil
}

// CheckInclusion checks an inclusion constraint extensionally: every value
// of the contained link must also be a value of the containing one.
func (in *Instance) CheckInclusion(c InclusionConstraint) ConstraintCheck {
	var r ConstraintCheck
	super := make(map[string]bool)
	for _, t := range in.rels[c.Super.Scheme].Tuples() {
		for _, v := range PathValues(t, c.Super.Path) {
			super[v.String()] = true
		}
	}
	sub := make(map[string]bool)
	for _, t := range in.rels[c.Sub.Scheme].Tuples() {
		for _, v := range PathValues(t, c.Sub.Path) {
			sub[v.String()] = true
			if !super[v.String()] {
				r.violation("%s not reachable via %s", v, c.Super)
			}
		}
	}
	r.Support = len(sub)
	return r
}

func (r *ConstraintCheck) violation(format string, args ...any) {
	if r.Violations == 0 {
		r.Example = fmt.Sprintf(format, args...)
	}
	r.Violations++
}

// scalarEqual compares two scalar values for constraint purposes: links and
// images compare equal to text with the same payload (an anchor is text
// even when the target attribute is typed differently).
func scalarEqual(a, b nested.Value) bool {
	return nested.ValueEqual(stripKind(a), stripKind(b))
}

// linkAnchorPairs collects, for every occurrence of the link attribute in a
// page tuple, the pair (anchor value, link value). The anchor path must be
// in scope of the link: either at an ancestor level or in the same list
// element.
func linkAnchorPairs(t nested.Tuple, link, anchor Path) ([][2]nested.Value, error) {
	var walk func(tup nested.Tuple, lp, ap Path) ([][2]nested.Value, error)
	walk = func(tup nested.Tuple, lp, ap Path) ([][2]nested.Value, error) {
		if len(lp) == 1 {
			lv, ok := tup.Get(lp[0])
			if !ok {
				return nil, fmt.Errorf("adm: missing link attribute %q", lp[0])
			}
			if lv.IsNull() {
				return nil, nil
			}
			avs := PathValues(tup, ap)
			if len(avs) != 1 {
				return nil, fmt.Errorf("adm: anchor path %s is not single-valued in scope", ap)
			}
			return [][2]nested.Value{{avs[0], lv}}, nil
		}
		v, ok := tup.Get(lp[0])
		if !ok {
			return nil, fmt.Errorf("adm: missing attribute %q", lp[0])
		}
		if v.IsNull() {
			return nil, nil
		}
		lvl, ok := v.(nested.ListValue)
		if !ok {
			return nil, fmt.Errorf("adm: attribute %q is not a list", lp[0])
		}
		var out [][2]nested.Value
		for _, elem := range lvl {
			nextAnchor := ap
			if len(ap) > 1 && ap[0] == lp[0] {
				nextAnchor = ap[1:]
			} else {
				// Anchor bound at this level: evaluate it here and pair it
				// with every link below.
				avs := PathValues(tup, ap)
				if len(avs) != 1 {
					return nil, fmt.Errorf("adm: anchor path %s is not single-valued in scope", ap)
				}
				links := PathValues(elem, lp[1:])
				for _, l := range links {
					out = append(out, [2]nested.Value{avs[0], l})
				}
				continue
			}
			sub, err := walk(elem, lp[1:], nextAnchor)
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
		}
		return out, nil
	}
	return walk(t, link, anchor)
}

// stripKind converts scalar values to text for cross-kind comparison:
// link constraints may equate an anchor (text) with, e.g., a name attribute.
func stripKind(v nested.Value) nested.Value {
	if v == nil || v.IsNull() {
		return nested.Null
	}
	switch x := v.(type) {
	case nested.TextValue:
		return x
	case nested.LinkValue:
		return nested.TextValue(x)
	case nested.ImageValue:
		return nested.TextValue(x)
	default:
		return v
	}
}

// TotalPages returns the number of pages in the instance across all
// page-relations.
func (in *Instance) TotalPages() int {
	n := 0
	for _, name := range in.Scheme.PageNames() {
		n += in.rels[name].Len()
	}
	return n
}
