package hypertext

import (
	"slices"
	"testing"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
	"ulixes/internal/sitegen"
)

// TestTrustedTupleNamesContract checks the contract WrapPage relies on when
// it hands the cached namesFor/namesForElems slices to nested.TrustedTuple:
// every page of a scheme shares one names slice, so no tuple-deriving
// operation may write into the names of its input. It wraps every page of
// the generated university and bibliography sites, runs the deriving
// operations over the wrapped tuples, their list elements and relations of
// them, and then checks that each cached slice still spells its scheme's
// attribute names.
func TestTrustedTupleNamesContract(t *testing.T) {
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := sitegen.GenerateBibliography(sitegen.BibliographyParams{
		Authors: 40, Confs: 4, DBConfs: 2, Years: 3, PapersPerEdition: 3, AuthorsPerPaper: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := nested.NewQualifier("q")
	for _, site := range []struct {
		scheme *adm.Scheme
		inst   *adm.Instance
	}{{u.Scheme, u.Instance}, {b.Scheme, b.Instance}} {
		for _, name := range site.scheme.PageNames() {
			ps := site.scheme.Page(name)
			rel := nested.NewRelation(ps.TupleType())
			qualified := nested.NewRelation(nil)
			for _, tup := range site.inst.Relation(name).Tuples() {
				url, _ := tup.Get(adm.URLAttr)
				html, err := RenderPage(ps, tup)
				if err != nil {
					t.Fatalf("render %s %s: %v", name, url, err)
				}
				w, err := WrapPage(ps, url.String(), html)
				if err != nil {
					t.Fatalf("wrap %s %s: %v", name, url, err)
				}
				rel.Insert(w)
				qualified.Insert(q.Apply(w))
				deriveTuples(t, q, w)
			}
			if _, err := rel.Join(qualified, []nested.EqCond{{Left: adm.URLAttr, Right: "q." + adm.URLAttr}}); err != nil {
				t.Fatalf("join %s with its qualified copy: %v", name, err)
			}
			unnestAll(t, rel, "", ps.Attrs)
		}
		for _, name := range site.scheme.PageNames() {
			ps := site.scheme.Page(name)
			want := []string{adm.URLAttr}
			for _, f := range ps.Attrs {
				want = append(want, f.Name)
			}
			if got := namesFor(ps); !slices.Equal(got, want) {
				t.Errorf("%s: shared names slice is now %v, want %v", name, got, want)
			}
			checkElemNames(t, name, ps.Attrs)
		}
	}
}

// deriveTuples runs every tuple-deriving operation on tup and, recursively,
// on the element tuples of its lists. The results are discarded: only the
// inputs' names slices are checked afterwards.
func deriveTuples(t *testing.T, q *nested.Qualifier, tup nested.Tuple) {
	t.Helper()
	names := tup.Names()
	tup.With(names[0], nested.Null)
	tup.With("Extra", nested.Null)
	tup.Without(names[len(names)/2])
	if _, err := tup.Project(names[len(names)/2:]); err != nil {
		t.Fatal(err)
	}
	ren := make(map[string]string, len(names))
	for _, n := range names {
		ren[n] = "r_" + n
	}
	tup.Rename(ren)
	if _, err := tup.Concat(q.Apply(tup)); err != nil {
		t.Fatal(err)
	}
	for i := range names {
		if lv, ok := tup.At(i).(nested.ListValue); ok {
			for _, elem := range lv {
				deriveTuples(t, q, elem)
			}
		}
	}
}

// unnestAll unnests every list attribute of rel, and the lists nested in
// their elements, one level at a time.
func unnestAll(t *testing.T, rel *nested.Relation, prefix string, fields []nested.Field) {
	t.Helper()
	for _, f := range fields {
		if f.Type.Kind != nested.KindList {
			continue
		}
		out, err := rel.Unnest(prefix + f.Name)
		if err != nil {
			t.Fatalf("unnest %s%s: %v", prefix, f.Name, err)
		}
		unnestAll(t, out, prefix+f.Name+".", f.Type.Elem)
	}
}

// checkElemNames checks the cached element names of every list field,
// however deeply nested.
func checkElemNames(t *testing.T, scheme string, fields []nested.Field) {
	t.Helper()
	for _, f := range fields {
		if f.Type.Kind != nested.KindList {
			continue
		}
		var want []string
		for _, e := range f.Type.Elem {
			want = append(want, e.Name)
		}
		if got := namesForElems(f.Type.Elem); !slices.Equal(got, want) {
			t.Errorf("%s.%s: shared element names slice is now %v, want %v", scheme, f.Name, got, want)
		}
		checkElemNames(t, scheme, f.Type.Elem)
	}
}
