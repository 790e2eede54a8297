// Package cq models the conjunctive queries the paper's relational view
// accepts (§5): SELECT–FROM–WHERE blocks over external relations with
// equality joins and constant selections. A small parser accepts a SQL-like
// concrete syntax so queries can be typed at the CLI.
package cq

import (
	"fmt"
	"strings"
)

// AttrUse names an attribute of a query atom: alias.Attr.
type AttrUse struct {
	Atom string
	Attr string
}

// String renders the use as alias.Attr.
func (a AttrUse) String() string { return a.Atom + "." + a.Attr }

// Atom is one occurrence of an external relation in the FROM clause.
type Atom struct {
	// Relation is the external relation name.
	Relation string
	// Alias is the atom's alias; defaults to the relation name.
	Alias string
}

// EffAlias returns the alias, defaulting to the relation name.
func (a Atom) EffAlias() string {
	if a.Alias != "" {
		return a.Alias
	}
	return a.Relation
}

// EqJoin is an equality join condition between two atoms' attributes.
type EqJoin struct {
	Left  AttrUse
	Right AttrUse
}

// ConstSel is a constant selection alias.Attr = 'value'.
type ConstSel struct {
	Attr AttrUse
	Val  string
}

// OutCol is one output column: the attribute to project and its output
// name (AS alias).
type OutCol struct {
	Attr AttrUse
	As   string
}

// EffName returns the output column name, defaulting to the attribute name.
func (o OutCol) EffName() string {
	if o.As != "" {
		return o.As
	}
	return o.Attr.Attr
}

// Output is the output rule every evaluation of a query shares, whether it
// runs as a navigation plan or over stored view extents: project the source
// column of each output column (colOf names it; a column selected twice is
// projected once, at its first position), then rename every projected
// column whose name differs from its output name. Two output names for one
// source column are an error, because one column cannot be renamed twice.
func Output(sel []OutCol, colOf func(AttrUse) (string, error)) (cols []string, ren map[string]string, err error) {
	cols = make([]string, 0, len(sel))
	ren = make(map[string]string, len(sel))
	seen := make(map[string]bool, len(sel))
	for _, out := range sel {
		col, err := colOf(out.Attr)
		if err != nil {
			return nil, nil, err
		}
		if col != out.EffName() {
			if prev, dup := ren[col]; dup && prev != out.EffName() {
				return nil, nil, fmt.Errorf("cq: output columns %q and %q project the same source attribute %s", prev, out.EffName(), out.Attr)
			}
			ren[col] = out.EffName()
		}
		if !seen[col] {
			seen[col] = true
			cols = append(cols, col)
		}
	}
	return cols, ren, nil
}

// Query is a conjunctive query over external relations.
type Query struct {
	Select []OutCol
	// Star is set for SELECT *: project every attribute of every atom
	// (expanded against the view's relation schemas at optimization time).
	Star   bool
	From   []Atom
	Joins  []EqJoin
	Consts []ConstSel
}

// Atom returns the FROM atom with the given alias.
func (q *Query) Atom(alias string) (Atom, bool) {
	for _, a := range q.From {
		if a.EffAlias() == alias {
			return a, true
		}
	}
	return Atom{}, false
}

// Validate checks structural sanity: non-empty SELECT and FROM, unique
// aliases, and every attribute use referring to a declared atom.
func (q *Query) Validate() error {
	if len(q.From) == 0 {
		return fmt.Errorf("cq: empty FROM clause")
	}
	if q.Star && len(q.Select) > 0 {
		return fmt.Errorf("cq: SELECT * cannot be combined with explicit columns")
	}
	if !q.Star && len(q.Select) == 0 {
		return fmt.Errorf("cq: empty SELECT clause")
	}
	seen := make(map[string]bool)
	for _, a := range q.From {
		al := a.EffAlias()
		if seen[al] {
			return fmt.Errorf("cq: duplicate alias %q", al)
		}
		seen[al] = true
	}
	check := func(u AttrUse) error {
		if !seen[u.Atom] {
			return fmt.Errorf("cq: attribute %s references unknown alias %q", u, u.Atom)
		}
		return nil
	}
	for _, o := range q.Select {
		if err := check(o.Attr); err != nil {
			return err
		}
	}
	outNames := make(map[string]bool)
	for _, o := range q.Select {
		n := o.EffName()
		if outNames[n] {
			return fmt.Errorf("cq: duplicate output column %q (use AS)", n)
		}
		outNames[n] = true
	}
	for _, j := range q.Joins {
		if err := check(j.Left); err != nil {
			return err
		}
		if err := check(j.Right); err != nil {
			return err
		}
	}
	for _, c := range q.Consts {
		if err := check(c.Attr); err != nil {
			return err
		}
	}
	return nil
}

// String renders the query back to its concrete syntax.
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if q.Star {
		sb.WriteString("*")
	}
	for i, o := range q.Select {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(o.Attr.String())
		if o.As != "" {
			sb.WriteString(" AS " + o.As)
		}
	}
	sb.WriteString(" FROM ")
	for i, a := range q.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.Relation)
		if a.Alias != "" && a.Alias != a.Relation {
			sb.WriteString(" " + a.Alias)
		}
	}
	first := true
	for _, j := range q.Joins {
		sb.WriteString(whereWord(&first))
		fmt.Fprintf(&sb, "%s = %s", j.Left, j.Right)
	}
	for _, c := range q.Consts {
		sb.WriteString(whereWord(&first))
		fmt.Fprintf(&sb, "%s = '%s'", c.Attr, strings.ReplaceAll(c.Val, "'", "''"))
	}
	return sb.String()
}

func whereWord(first *bool) string {
	if *first {
		*first = false
		return " WHERE "
	}
	return " AND "
}
