package hypertext

import (
	"strings"
	"testing"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
	"ulixes/internal/sitegen"
)

// TestWrapTextFollowsDocumentOrder: a text field marked on an element with
// inline markup wraps to the element's text in document order, by
// WrapPage and by the tree oracle alike.
func TestWrapTextFollowsDocumentOrder(t *testing.T) {
	scheme := &adm.PageScheme{Name: "P", Attrs: []nested.Field{{Name: "Name", Type: nested.Text()}}}
	for html, want := range map[string]string{
		`<body><span data-attr="Name">Smith <em>Jr.</em> III</span></body>`:  "Smith Jr. III",
		`<body><span data-attr="Name">a<b>b</b>c</span></body>`:              "abc",
		`<body><span data-attr="Name"><i>x</i> &amp; <i>y</i></span></body>`: "x & y",
	} {
		for name, wrap := range map[string]func(*adm.PageScheme, string, string) (nested.Tuple, error){
			"WrapPage": WrapPage, "wrapTree": wrapTree,
		} {
			tup, err := wrap(scheme, "u", html)
			if err != nil {
				t.Fatalf("%s(%q): %v", name, html, err)
			}
			if got := tup.MustGet("Name").String(); got != want {
				t.Errorf("%s(%q): Name = %q, want %q", name, html, got, want)
			}
		}
	}
}

// TestWrapEndTags pins how WrapPage closes elements: a stray end tag is
// ignored, an end tag closes the nearest open element of its name and
// every element opened after it, and an element still open at the end of
// the page is an error.
func TestWrapEndTags(t *testing.T) {
	scheme := &adm.PageScheme{Name: "P", Attrs: []nested.Field{
		{Name: "A", Type: nested.Text()},
		{Name: "B", Type: nested.Text(), Optional: true},
	}}
	tup, err := WrapPage(scheme, "u", `</stray><body></li><span data-attr="A">x</span></body>`)
	if err != nil {
		t.Fatalf("stray end tags should be ignored: %v", err)
	}
	if got := tup.MustGet("A").String(); got != "x" {
		t.Errorf("A = %q, want x", got)
	}
	// </div> closes the unclosed <span>, so B is not part of A's text.
	tup, err = WrapPage(scheme, "u", `<body><div><span data-attr="A">x</div><span data-attr="B">y</span></body>`)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := tup.MustGet("A").String(), tup.MustGet("B").String(); a != "x" || b != "y" {
		t.Errorf("A, B = %q, %q, want x, y", a, b)
	}
	for _, html := range []string{
		`<body><span data-attr="A">x</span>`,
		`<body><span data-attr="A">x</span></body><div>`,
		`<div><span data-attr="A">x</span>`,
	} {
		if _, err := WrapPage(scheme, "u", html); err == nil {
			t.Errorf("WrapPage(%q) should fail: elements are left open", html)
		}
	}
}

// TestWrapRejectsDamagedPages: the pages a truncating or malforming site
// serves fail to wrap, so they are retried rather than cached. For every
// page of the paper's university and of the default bibliography, the
// fault injector's truncated and malformed pages (re-stated here) fail, and
// so does every proper prefix of the page that ends before a tag.
//
// Each prefix costs a whole wrap, so the bibliography's prefixes are
// checked on the first prefixPages pages of each page-scheme, and a page
// with more than prefixTags tags (the 311 KB author index) is cut only
// before its last prefixTags tags.
func TestWrapRejectsDamagedPages(t *testing.T) {
	const prefixPages, prefixTags = 20, 500
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := sitegen.GenerateBibliography(sitegen.DefaultBibliographyParams())
	if err != nil {
		t.Fatal(err)
	}
	truncate := func(html string) string { return html[:len(html)/3] }
	malform := func(html string) string {
		half := len(html) / 2
		return html[:half] + strings.ReplaceAll(html[half:], "<", " ")
	}
	for _, site := range []struct {
		scheme   *adm.Scheme
		inst     *adm.Instance
		prefixed int // pages of each page-scheme whose prefixes are checked
	}{{u.Scheme, u.Instance, u.Instance.TotalPages()}, {b.Scheme, b.Instance, prefixPages}} {
		for _, name := range site.scheme.PageNames() {
			ps := site.scheme.Page(name)
			for k, tup := range site.inst.Relation(name).Tuples() {
				url := tup.MustGet(adm.URLAttr).String()
				html, err := RenderPage(ps, tup)
				if err != nil {
					t.Fatal(err)
				}
				damaged := []string{truncate(html), malform(html)}
				for i, tags := len(html)-1, 0; k < site.prefixed && i >= 0 && tags < prefixTags; i-- {
					if html[i] == '<' {
						damaged = append(damaged, html[:i])
						tags++
					}
				}
				for _, page := range damaged {
					if _, err := WrapPage(ps, url, page); err == nil {
						t.Fatalf("%s %s: a damaged page wrapped:\n%s", name, url, page)
					}
				}
			}
		}
	}
}
