package adm

import (
	"testing"

	"ulixes/internal/nested"
)

func miniInstance(t *testing.T) *Instance {
	t.Helper()
	s := miniScheme(t)
	in := NewInstance(s)
	mustAdd := func(scheme string, tup nested.Tuple) {
		t.Helper()
		if err := in.AddPage(scheme, tup); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd("ListPage", nested.T(
		URLAttr, nested.LinkValue("http://x/list.html"),
		"Title", nested.TextValue("Items"),
		"Items", nested.ListValue{
			nested.T("Name", nested.TextValue("alpha"), "ToItem", nested.LinkValue("http://x/i/1")),
			nested.T("Name", nested.TextValue("beta"), "ToItem", nested.LinkValue("http://x/i/2")),
		},
	))
	mustAdd("ItemPage", nested.T(
		URLAttr, nested.LinkValue("http://x/i/1"),
		"Name", nested.TextValue("alpha"),
		"Desc", nested.TextValue("first"),
		"ToNext", nested.LinkValue("http://x/i/2"),
	))
	mustAdd("ItemPage", nested.T(
		URLAttr, nested.LinkValue("http://x/i/2"),
		"Name", nested.TextValue("beta"),
		"Desc", nested.Null,
		"ToNext", nested.Null,
	))
	return in
}

func TestInstanceValidateOK(t *testing.T) {
	if err := miniInstance(t).Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
}

func TestAddPageValidates(t *testing.T) {
	in := NewInstance(miniScheme(t))
	if err := in.AddPage("Nope", nested.T(URLAttr, nested.LinkValue("u"))); err == nil {
		t.Error("unknown scheme should be rejected")
	}
	if err := in.AddPage("ItemPage", nested.T(URLAttr, nested.LinkValue("u"))); err == nil {
		t.Error("tuple missing attributes should be rejected")
	}
	if err := in.AddPage("ItemPage", nested.T(
		URLAttr, nested.Null,
		"Name", nested.TextValue("x"),
		"Desc", nested.Null,
		"ToNext", nested.Null,
	)); err == nil {
		t.Error("null URL should be rejected")
	}
}

func TestInstancePageLookup(t *testing.T) {
	in := miniInstance(t)
	tup, ok := in.Page("ItemPage", "http://x/i/1")
	if !ok || tup.MustGet("Name").String() != "alpha" {
		t.Errorf("page lookup failed: %v %v", tup, ok)
	}
	if _, ok := in.Page("ItemPage", "http://x/i/404"); ok {
		t.Error("lookup of absent page should fail")
	}
	if _, ok := in.Page("Nope", "u"); ok {
		t.Error("lookup in unknown scheme should fail")
	}
	if in.Relation("ItemPage").Len() != 2 {
		t.Error("relation cardinality wrong")
	}
	if in.TotalPages() != 3 {
		t.Errorf("TotalPages = %d", in.TotalPages())
	}
}

func TestPathValues(t *testing.T) {
	tup := nested.T(
		"A", nested.TextValue("x"),
		"L", nested.ListValue{
			nested.T("B", nested.TextValue("1"), "M", nested.ListValue{
				nested.T("C", nested.TextValue("c1")),
			}),
			nested.T("B", nested.TextValue("2"), "M", nested.ListValue{
				nested.T("C", nested.TextValue("c2")),
				nested.T("C", nested.TextValue("c3")),
			}),
		},
		"N", nested.Null,
	)
	if vs := PathValues(tup, ParsePath("A")); len(vs) != 1 || vs[0].String() != "x" {
		t.Errorf("PathValues(A) = %v", vs)
	}
	if vs := PathValues(tup, ParsePath("L.B")); len(vs) != 2 {
		t.Errorf("PathValues(L.B) = %v", vs)
	}
	if vs := PathValues(tup, ParsePath("L.M.C")); len(vs) != 3 {
		t.Errorf("PathValues(L.M.C) = %v", vs)
	}
	if vs := PathValues(tup, ParsePath("N.X")); vs != nil {
		t.Errorf("PathValues through null = %v", vs)
	}
	if vs := PathValues(tup, ParsePath("Missing")); vs != nil {
		t.Errorf("PathValues of missing attr = %v", vs)
	}
	if vs := PathValues(tup, nil); vs != nil {
		t.Errorf("PathValues of empty path = %v", vs)
	}
	if vs := PathValues(tup, ParsePath("A.X")); vs != nil {
		t.Errorf("PathValues through scalar = %v", vs)
	}
}

func TestValidateDetectsDuplicateURL(t *testing.T) {
	in := miniInstance(t)
	// Insert a ListPage with the URL of an ItemPage.
	if err := in.AddPage("ItemPage", nested.T(
		URLAttr, nested.LinkValue("http://x/list.html"),
		"Name", nested.TextValue("dup"),
		"Desc", nested.Null,
		"ToNext", nested.Null,
	)); err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err == nil {
		t.Error("duplicate URL across schemes should be rejected")
	}
}

func TestValidateDetectsEntryPointCardinality(t *testing.T) {
	s := miniScheme(t)
	in := NewInstance(s)
	// No ListPage at all: entry point has zero tuples.
	if err := in.Validate(); err == nil {
		t.Error("empty entry point should be rejected")
	}
}

func TestValidateDetectsWrongEntryURL(t *testing.T) {
	in := NewInstance(miniScheme(t))
	if err := in.AddPage("ListPage", nested.T(
		URLAttr, nested.LinkValue("http://x/other.html"),
		"Title", nested.TextValue("Items"),
		"Items", nested.ListValue{},
	)); err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err == nil {
		t.Error("entry page with mismatched URL should be rejected")
	}
}

func TestValidateDetectsDanglingLink(t *testing.T) {
	in := NewInstance(miniScheme(t))
	if err := in.AddPage("ListPage", nested.T(
		URLAttr, nested.LinkValue("http://x/list.html"),
		"Title", nested.TextValue("Items"),
		"Items", nested.ListValue{
			nested.T("Name", nested.TextValue("ghost"), "ToItem", nested.LinkValue("http://x/i/404")),
		},
	)); err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err == nil {
		t.Error("dangling link should be rejected")
	}
}

func TestValidateDetectsLinkConstraintViolation(t *testing.T) {
	in := NewInstance(miniScheme(t))
	// Anchor says "alpha" but the item page's Name is "beta".
	if err := in.AddPage("ListPage", nested.T(
		URLAttr, nested.LinkValue("http://x/list.html"),
		"Title", nested.TextValue("Items"),
		"Items", nested.ListValue{
			nested.T("Name", nested.TextValue("alpha"), "ToItem", nested.LinkValue("http://x/i/1")),
		},
	)); err != nil {
		t.Fatal(err)
	}
	if err := in.AddPage("ItemPage", nested.T(
		URLAttr, nested.LinkValue("http://x/i/1"),
		"Name", nested.TextValue("beta"),
		"Desc", nested.Null,
		"ToNext", nested.Null,
	)); err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err == nil {
		t.Error("link constraint violation should be rejected")
	}
}

func TestValidateDetectsInclusionViolation(t *testing.T) {
	in := NewInstance(miniScheme(t))
	if err := in.AddPage("ListPage", nested.T(
		URLAttr, nested.LinkValue("http://x/list.html"),
		"Title", nested.TextValue("Items"),
		"Items", nested.ListValue{
			nested.T("Name", nested.TextValue("one"), "ToItem", nested.LinkValue("http://x/i/1")),
		},
	)); err != nil {
		t.Fatal(err)
	}
	// Item 1 links to item 2, which exists but is NOT in the list: the
	// inclusion ItemPage.ToNext ⊆ ListPage.Items.ToItem is violated.
	if err := in.AddPage("ItemPage", nested.T(
		URLAttr, nested.LinkValue("http://x/i/1"),
		"Name", nested.TextValue("one"),
		"Desc", nested.Null,
		"ToNext", nested.LinkValue("http://x/i/2"),
	)); err != nil {
		t.Fatal(err)
	}
	if err := in.AddPage("ItemPage", nested.T(
		URLAttr, nested.LinkValue("http://x/i/2"),
		"Name", nested.TextValue("two"),
		"Desc", nested.Null,
		"ToNext", nested.Null,
	)); err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err == nil {
		t.Error("inclusion violation should be rejected")
	}
}

func TestLinkAnchorPairsAnchorAboveList(t *testing.T) {
	// Anchor bound at page level, links inside a list: e.g.
	// SessionPage.Session = CoursePage.Session via CourseList.ToCourse.
	s := NewScheme()
	if err := s.AddPage(&PageScheme{Name: "S", Attrs: []nested.Field{
		{Name: "Session", Type: nested.Text()},
		{Name: "CourseList", Type: nested.List(
			nested.Field{Name: "ToCourse", Type: nested.Link("C")},
		)},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPage(&PageScheme{Name: "C", Attrs: []nested.Field{
		{Name: "Session", Type: nested.Text()},
	}}); err != nil {
		t.Fatal(err)
	}
	s.AddLinkConstraint(LinkConstraint{
		Link:    AttrRef{Scheme: "S", Path: ParsePath("CourseList.ToCourse")},
		SrcAttr: ParsePath("Session"),
		TgtAttr: "Session",
	})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	in := NewInstance(s)
	if err := in.AddPage("S", nested.T(
		URLAttr, nested.LinkValue("s1"),
		"Session", nested.TextValue("Fall"),
		"CourseList", nested.ListValue{
			nested.T("ToCourse", nested.LinkValue("c1")),
			nested.T("ToCourse", nested.LinkValue("c2")),
		},
	)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"c1", "c2"} {
		if err := in.AddPage("C", nested.T(
			URLAttr, nested.LinkValue(c),
			"Session", nested.TextValue("Fall"),
		)); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Validate(); err != nil {
		t.Errorf("page-level anchor constraint should validate: %v", err)
	}
	// Now break it.
	in2 := NewInstance(s)
	if err := in2.AddPage("S", nested.T(
		URLAttr, nested.LinkValue("s1"),
		"Session", nested.TextValue("Fall"),
		"CourseList", nested.ListValue{nested.T("ToCourse", nested.LinkValue("c1"))},
	)); err != nil {
		t.Fatal(err)
	}
	if err := in2.AddPage("C", nested.T(
		URLAttr, nested.LinkValue("c1"),
		"Session", nested.TextValue("Winter"),
	)); err != nil {
		t.Fatal(err)
	}
	if err := in2.Validate(); err == nil {
		t.Error("violated page-level anchor constraint should be rejected")
	}
}

func TestStripKind(t *testing.T) {
	if stripKind(nested.LinkValue("u")).String() != "u" {
		t.Error("link should strip to text")
	}
	if stripKind(nested.ImageValue("i")).String() != "i" {
		t.Error("image should strip to text")
	}
	if !stripKind(nested.Null).IsNull() {
		t.Error("null should stay null")
	}
	if stripKind(nil) == nil || !stripKind(nil).IsNull() {
		t.Error("nil should become null")
	}
	lv := nested.ListValue{}
	if stripKind(lv).Kind() != nested.KindList {
		t.Error("lists pass through")
	}
}

func TestLinkAnchorPairs(t *testing.T) {
	tup := nested.T(
		"Session", nested.TextValue("Fall"),
		"CourseList", nested.ListValue{
			nested.T("CName", nested.TextValue("c1"), "ToCourse", nested.LinkValue("u1")),
			nested.T("CName", nested.TextValue("c2"), "ToCourse", nested.LinkValue("u2")),
		},
	)
	// Sibling anchor inside the list.
	pairs, err := linkAnchorPairs(tup, ParsePath("CourseList.ToCourse"), ParsePath("CourseList.CName"))
	if err != nil || len(pairs) != 2 {
		t.Fatalf("pairs = %v, err = %v", pairs, err)
	}
	if pairs[0][0].String() != "c1" || pairs[0][1].String() != "u1" {
		t.Errorf("pair = %v", pairs[0])
	}
	// Page-level anchor.
	pairs, err = linkAnchorPairs(tup, ParsePath("CourseList.ToCourse"), ParsePath("Session"))
	if err != nil || len(pairs) != 2 || pairs[1][0].String() != "Fall" {
		t.Fatalf("page-level pairs = %v, err = %v", pairs, err)
	}
	// Null link at top level contributes nothing.
	tn := nested.T("L", nested.Null, "A", nested.TextValue("x"))
	pairs, err = linkAnchorPairs(tn, ParsePath("L"), ParsePath("A"))
	if err != nil || len(pairs) != 0 {
		t.Errorf("null link pairs = %v, err = %v", pairs, err)
	}
	// Missing link attribute errors.
	if _, err := linkAnchorPairs(tn, ParsePath("Ghost"), ParsePath("A")); err == nil {
		t.Error("missing link attr should error")
	}
	// A multi-valued anchor (several values in scope) errors; a list
	// attribute itself is one value and is ruled out by scheme validation
	// instead.
	multi := nested.T(
		"L", nested.LinkValue("u"),
		"M", nested.ListValue{
			nested.T("A", nested.TextValue("1")),
			nested.T("A", nested.TextValue("2")),
		},
	)
	if _, err := linkAnchorPairs(multi, ParsePath("L"), ParsePath("M.A")); err == nil {
		t.Error("multi-valued anchor should error")
	}
}

func TestScalarEqual(t *testing.T) {
	if !scalarEqual(nested.TextValue("u"), nested.LinkValue("u")) {
		t.Error("text and link with same payload should be scalar-equal")
	}
	if scalarEqual(nested.TextValue("a"), nested.TextValue("b")) {
		t.Error("different payloads differ")
	}
	if !scalarEqual(nested.Null, nested.Null) {
		t.Error("null equals null")
	}
}
