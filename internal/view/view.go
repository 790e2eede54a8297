// Package view implements the relational views of §5 of the paper: external
// relations exposed to the user, each associated with one or more default
// navigations — computable NALG expressions whose execution materializes the
// relation's extent — together with the column mapping from navigation
// output to external attribute names.
package view

import (
	"fmt"

	"ulixes/internal/adm"
	"ulixes/internal/cq"
	"ulixes/internal/nalg"
)

// Navigation is one default navigation of an external relation.
type Navigation struct {
	// Expr is the navigation, a computable NALG expression without final
	// projection (the optimizer projects as late or early as the rules
	// allow).
	Expr nalg.Expr
	// ColMap maps each external attribute to the qualified navigation
	// column holding it.
	ColMap map[string]string
}

// ExternalRelation is one relation of the external view.
type ExternalRelation struct {
	Name string
	// Attrs are the external attribute names in declaration order.
	Attrs []string
	// Navs are the default navigations (Rule 1 replaces the relation with
	// any of them).
	Navs []Navigation
}

// Registry is the set of external relations offered over one web scheme.
type Registry struct {
	Scheme    *adm.Scheme
	relations map[string]*ExternalRelation
	order     []string
}

// NewRegistry creates an empty registry over a web scheme.
func NewRegistry(ws *adm.Scheme) *Registry {
	return &Registry{Scheme: ws, relations: make(map[string]*ExternalRelation)}
}

// Add registers an external relation, validating each navigation: the
// expression must be computable, type-check against the scheme, and expose
// every mapped column.
func (r *Registry) Add(rel *ExternalRelation) error {
	if rel.Name == "" {
		return fmt.Errorf("view: relation with empty name")
	}
	if _, dup := r.relations[rel.Name]; dup {
		return fmt.Errorf("view: duplicate relation %q", rel.Name)
	}
	if len(rel.Attrs) == 0 {
		return fmt.Errorf("view: relation %q has no attributes", rel.Name)
	}
	if len(rel.Navs) == 0 {
		return fmt.Errorf("view: relation %q has no default navigation", rel.Name)
	}
	for i, nav := range rel.Navs {
		sch, err := nalg.InferSchema(nav.Expr, r.Scheme)
		if err != nil {
			return fmt.Errorf("view: %s navigation %d: %v", rel.Name, i, err)
		}
		for _, a := range rel.Attrs {
			col, ok := nav.ColMap[a]
			if !ok {
				return fmt.Errorf("view: %s navigation %d does not map attribute %q", rel.Name, i, a)
			}
			if !sch.Has(col) {
				return fmt.Errorf("view: %s navigation %d maps %q to missing column %q", rel.Name, i, a, col)
			}
		}
	}
	r.relations[rel.Name] = rel
	r.order = append(r.order, rel.Name)
	return nil
}

// MustAdd is Add that panics on error, for the statically known site views.
func (r *Registry) MustAdd(rel *ExternalRelation) {
	if err := r.Add(rel); err != nil {
		panic(err)
	}
}

// Relation returns the named external relation, or nil.
func (r *Registry) Relation(name string) *ExternalRelation { return r.relations[name] }

// Names returns the relation names in registration order.
func (r *Registry) Names() []string { return r.order }

// ExpandStar rewrites SELECT * into the explicit attribute list: every
// attribute of every atom, in FROM order, prefixed with the atom alias when
// the bare name would collide. Live plans and view answers both expand
// through it, so a SELECT * has the same output columns either way.
func (r *Registry) ExpandStar(q *cq.Query) (*cq.Query, error) {
	if !q.Star {
		return q, nil
	}
	counts := make(map[string]int)
	for _, atom := range q.From {
		rel := r.Relation(atom.Relation)
		if rel == nil {
			return nil, fmt.Errorf("view: unknown external relation %q", atom.Relation)
		}
		for _, a := range rel.Attrs {
			counts[a]++
		}
	}
	out := *q
	out.Star = false
	for _, atom := range q.From {
		for _, a := range r.Relation(atom.Relation).Attrs {
			col := cq.OutCol{Attr: cq.AttrUse{Atom: atom.EffAlias(), Attr: a}}
			if counts[a] > 1 {
				col.As = atom.EffAlias() + "_" + a
			}
			out.Select = append(out.Select, col)
		}
	}
	return &out, nil
}
