package hypertext

import (
	"strings"
	"testing"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
	"ulixes/internal/sitegen"
)

func TestEscapeUnescapeRoundTrip(t *testing.T) {
	cases := []string{
		"plain",
		`<a href="x">&'`,
		"già & <b>bold</b>",
		"",
		"a&b&c<>",
	}
	for _, c := range cases {
		if got := UnescapeHTML(EscapeHTML(c)); got != c {
			t.Errorf("round trip %q -> %q", c, got)
		}
	}
}

func TestUnescapeNumericAndMalformed(t *testing.T) {
	if got := UnescapeHTML("&#65;"); got != "A" {
		t.Errorf("numeric entity = %q", got)
	}
	if got := UnescapeHTML("&#8226;"); got != "•" {
		t.Errorf("numeric entity = %q", got)
	}
	// Malformed entities pass through.
	for _, s := range []string{"&nosemi", "&unknown;", "&#x41;", "&#;", "&toolongentity;"} {
		if got := UnescapeHTML(s); got != s {
			t.Errorf("UnescapeHTML(%q) = %q, want unchanged", s, got)
		}
	}
}

func TestTokenizeBasics(t *testing.T) {
	src := `<!DOCTYPE html><html><body class="main" data-x='q'>Hi &amp; bye<br><img src="a.png"/><!-- note --></body></html>`
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]TokenKind, len(toks))
	for i, tok := range toks {
		kinds[i] = tok.Kind
	}
	want := []TokenKind{TokenDoctype, TokenStartTag, TokenStartTag, TokenText, TokenSelfClosing, TokenSelfClosing, TokenComment, TokenEndTag, TokenEndTag}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(kinds), kinds, len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d kind = %v, want %v", i, kinds[i], want[i])
		}
	}
	body := toks[2]
	if v, ok := body.Get("class"); !ok || v != "main" {
		t.Errorf("class attr = %q %v", v, ok)
	}
	if v, ok := body.Get("data-x"); !ok || v != "q" {
		t.Errorf("single-quoted attr = %q %v", v, ok)
	}
	if _, ok := body.Get("absent"); ok {
		t.Error("absent attr should report false")
	}
	if toks[3].Text != "Hi & bye" {
		t.Errorf("text = %q", toks[3].Text)
	}
}

func TestTokenizeUnquotedAndBooleanAttrs(t *testing.T) {
	toks, err := Tokenize(`<input type=text disabled>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 1 || toks[0].Kind != TokenSelfClosing {
		t.Fatalf("toks = %v", toks)
	}
	if v, _ := toks[0].Get("type"); v != "text" {
		t.Errorf("unquoted attr = %q", v)
	}
	if _, ok := toks[0].Get("disabled"); !ok {
		t.Error("boolean attr missing")
	}
}

func TestTokenizeErrors(t *testing.T) {
	for _, src := range []string{
		"<!-- unterminated",
		"<!DOCTYPE html",
		"<div",
		"< >",
		`<div a="unterminated>`,
		"<div a=",
		"<div =x>",
	} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q) should error", src)
		}
	}
}

func TestTokenizeUppercaseNormalized(t *testing.T) {
	toks, err := Tokenize(`<DIV CLASS="x"></DIV>`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Tag != "div" {
		t.Errorf("tag = %q", toks[0].Tag)
	}
	if _, ok := toks[0].Get("class"); !ok {
		t.Error("attr keys should be lower-cased")
	}
}

func profScheme() *adm.PageScheme {
	return &adm.PageScheme{Name: "ProfPage", Attrs: []nested.Field{
		{Name: "Name", Type: nested.Text()},
		{Name: "Rank", Type: nested.Text()},
		{Name: "Photo", Type: nested.Image(), Optional: true},
		{Name: "ToDept", Type: nested.Link("DeptPage")},
		{Name: "Homepage", Type: nested.Link("ExtPage"), Optional: true},
		{Name: "CourseList", Type: nested.List(
			nested.Field{Name: "CName", Type: nested.Text()},
			nested.Field{Name: "ToCourse", Type: nested.Link("CoursePage")},
		)},
	}}
}

func profTuple() nested.Tuple {
	return nested.T(
		adm.URLAttr, nested.LinkValue("http://u/p/1"),
		"Name", nested.TextValue(`Smith & "Jones" <PhD>`),
		"Rank", nested.TextValue("Full"),
		"Photo", nested.ImageValue("smith.png"),
		"ToDept", nested.LinkValue("http://u/d/1"),
		"Homepage", nested.Null,
		"CourseList", nested.ListValue{
			nested.T("CName", nested.TextValue("DB & Web"), "ToCourse", nested.LinkValue("http://u/c/1")),
			nested.T("CName", nested.TextValue("Algorithms"), "ToCourse", nested.LinkValue("http://u/c/2")),
		},
	)
}

func TestRenderWrapRoundTrip(t *testing.T) {
	scheme := profScheme()
	orig := profTuple()
	html, err := RenderPage(scheme, orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := WrapPage(scheme, "http://u/p/1", html)
	if err != nil {
		t.Fatalf("wrap: %v\nhtml:\n%s", err, html)
	}
	if !got.Equal(orig) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got, orig)
	}
}

func TestRenderRejectsIllTyped(t *testing.T) {
	scheme := profScheme()
	bad := profTuple().With("Rank", nested.LinkValue("u"))
	if _, err := RenderPage(scheme, bad); err == nil {
		t.Error("ill-typed tuple should fail rendering")
	}
}

func TestRenderEscapes(t *testing.T) {
	scheme := profScheme()
	html, err := RenderPage(scheme, profTuple())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(html, `Smith & "Jones"`) {
		t.Error("text content should be escaped")
	}
	if !strings.Contains(html, "Smith &amp; &quot;Jones&quot; &lt;PhD&gt;") {
		t.Errorf("escaped name missing:\n%s", html)
	}
}

func TestWrapMissingMandatory(t *testing.T) {
	scheme := profScheme()
	html := `<html><body><span data-attr="Name">x</span></body></html>`
	if _, err := WrapPage(scheme, "u", html); err == nil {
		t.Error("page missing mandatory attributes should fail to wrap")
	}
}

func TestWrapOptionalAbsent(t *testing.T) {
	scheme := &adm.PageScheme{Name: "P", Attrs: []nested.Field{
		{Name: "A", Type: nested.Text()},
		{Name: "B", Type: nested.Text(), Optional: true},
	}}
	html := `<html><body><span data-attr="A">x</span></body></html>`
	tup, err := WrapPage(scheme, "u", html)
	if err != nil {
		t.Fatal(err)
	}
	if !tup.MustGet("B").IsNull() {
		t.Error("absent optional attribute should wrap to null")
	}
}

func TestWrapSchemeMetaMismatch(t *testing.T) {
	scheme := &adm.PageScheme{Name: "P"}
	html := `<html><head><meta name="page-scheme" content="Q"></head><body></body></html>`
	if _, err := WrapPage(scheme, "u", html); err == nil {
		t.Error("scheme marker mismatch should be detected")
	}
}

func TestWrapMalformedMarkers(t *testing.T) {
	link := &adm.PageScheme{Name: "P", Attrs: []nested.Field{
		{Name: "L", Type: nested.Link("P")},
	}}
	if _, err := WrapPage(link, "u", `<body><span data-attr="L">no href</span></body>`); err == nil {
		t.Error("link without href should fail")
	}
	img := &adm.PageScheme{Name: "P", Attrs: []nested.Field{
		{Name: "I", Type: nested.Image()},
	}}
	if _, err := WrapPage(img, "u", `<body><span data-attr="I">no src</span></body>`); err == nil {
		t.Error("image without src should fail")
	}
	list := &adm.PageScheme{Name: "P", Attrs: []nested.Field{
		{Name: "L", Type: nested.List(nested.Field{Name: "A", Type: nested.Text()})},
	}}
	if _, err := WrapPage(list, "u", `<body><div data-attr="L"></div></body>`); err == nil {
		t.Error("list marked on non-ul should fail")
	}
}

func TestWrapParseError(t *testing.T) {
	if _, err := WrapPage(&adm.PageScheme{Name: "P"}, "u", "<div"); err == nil {
		t.Error("unparseable HTML should fail to wrap")
	}
}

func TestWrapIgnoresNestedListAttrs(t *testing.T) {
	// An attribute name reused inside a nested list must not leak to the
	// outer level.
	scheme := &adm.PageScheme{Name: "P", Attrs: []nested.Field{
		{Name: "Name", Type: nested.Text()},
		{Name: "Items", Type: nested.List(
			nested.Field{Name: "Name", Type: nested.Text()},
		)},
	}}
	html := `<body>
	<ul data-attr="Items"><li><span data-attr="Name">inner</span></li></ul>
	<span data-attr="Name">outer</span>
	</body>`
	tup, err := WrapPage(scheme, "u", html)
	if err != nil {
		t.Fatal(err)
	}
	if tup.MustGet("Name").String() != "outer" {
		t.Errorf("outer Name = %q, should not see the nested one", tup.MustGet("Name"))
	}
	items := tup.MustGet("Items").(nested.ListValue)
	if len(items) != 1 || items[0].MustGet("Name").String() != "inner" {
		t.Errorf("items = %v", items)
	}
}

func TestWrapSkipsNonLiChildren(t *testing.T) {
	scheme := &adm.PageScheme{Name: "P", Attrs: []nested.Field{
		{Name: "Items", Type: nested.List(nested.Field{Name: "A", Type: nested.Text()})},
	}}
	html := `<body><ul data-attr="Items"><!-- x --><li><span data-attr="A">1</span></li><div>junk</div></ul></body>`
	tup, err := WrapPage(scheme, "u", html)
	if err != nil {
		t.Fatal(err)
	}
	if len(tup.MustGet("Items").(nested.ListValue)) != 1 {
		t.Error("non-li children should be skipped")
	}
}

// TestRoundTripWholeUniversity renders and wraps every page of the
// generated university site and checks exact equality — the full wrapper
// pipeline over hundreds of pages.
func TestRoundTripWholeUniversity(t *testing.T) {
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range u.Scheme.PageNames() {
		ps := u.Scheme.Page(name)
		for _, tup := range u.Instance.Relation(name).Tuples() {
			url, _ := tup.Get(adm.URLAttr)
			html, err := RenderPage(ps, tup)
			if err != nil {
				t.Fatalf("render %s %s: %v", name, url, err)
			}
			back, err := WrapPage(ps, url.String(), html)
			if err != nil {
				t.Fatalf("wrap %s %s: %v", name, url, err)
			}
			if !back.Equal(tup) {
				t.Fatalf("round trip mismatch for %s %s:\n got %v\nwant %v", name, url, back, tup)
			}
		}
	}
}

// TestRoundTripBibliography does the same over a small bibliography site,
// which exercises doubly nested lists (papers with author sublists).
func TestRoundTripBibliography(t *testing.T) {
	b, err := sitegen.GenerateBibliography(sitegen.BibliographyParams{
		Authors: 40, Confs: 4, DBConfs: 2, Years: 3, PapersPerEdition: 3, AuthorsPerPaper: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range b.Scheme.PageNames() {
		ps := b.Scheme.Page(name)
		for _, tup := range b.Instance.Relation(name).Tuples() {
			url, _ := tup.Get(adm.URLAttr)
			html, err := RenderPage(ps, tup)
			if err != nil {
				t.Fatalf("render %s %s: %v", name, url, err)
			}
			back, err := WrapPage(ps, url.String(), html)
			if err != nil {
				t.Fatalf("wrap %s %s: %v", name, url, err)
			}
			if !back.Equal(tup) {
				t.Fatalf("round trip mismatch for %s %s", name, url)
			}
		}
	}
}

// TestWrapToleratesForeignMarkup wraps a hand-written page with reordered
// attributes, extra wrapper divs, comments, odd whitespace and unknown
// markup — the robustness a wrapper needs on pages it did not render.
func TestWrapToleratesForeignMarkup(t *testing.T) {
	scheme := &adm.PageScheme{Name: "ProfPage", Attrs: []nested.Field{
		{Name: "Name", Type: nested.Text()},
		{Name: "Rank", Type: nested.Text()},
		{Name: "ToDept", Type: nested.Link("DeptPage")},
		{Name: "CourseList", Type: nested.List(
			nested.Field{Name: "CName", Type: nested.Text()},
			nested.Field{Name: "ToCourse", Type: nested.Link("CoursePage")},
		)},
	}}
	html := `<!DOCTYPE html>
	<html><head><META NAME="page-scheme" CONTENT="ProfPage"><title>x</title></head>
	<body background=old.gif>
	  <!-- header -->
	  <div class="nav"><table><tr><td>
	    <UL DATA-ATTR="CourseList">
	      <li><em><span data-attr="CName">  DB &amp; Web  </span></em>
	          <a target=_blank data-attr="ToCourse" href='http://u/c/1'>course</a></li>
	      <!-- a commented entry -->
	      <li><a data-attr="ToCourse" href="http://u/c/2"></a>
	          <div><span data-attr="CName">Nets</span></div></li>
	    </UL>
	  </td></tr></table></div>
	  <h1><span data-attr="Name">Ada Lovelace</span></h1>
	  <p>rank is <b><span data-attr="Rank">Full</span></b></p>
	  <a data-attr="ToDept" href="http://u/d/9">dept</a>
	  <footer>generated 1998</footer>
	</body></html>`
	tup, err := WrapPage(scheme, "http://u/p/1", html)
	if err != nil {
		t.Fatal(err)
	}
	if tup.MustGet("Name").String() != "Ada Lovelace" {
		t.Errorf("Name = %q", tup.MustGet("Name"))
	}
	if tup.MustGet("Rank").String() != "Full" {
		t.Errorf("Rank = %q", tup.MustGet("Rank"))
	}
	if tup.MustGet("ToDept").String() != "http://u/d/9" {
		t.Errorf("ToDept = %q", tup.MustGet("ToDept"))
	}
	courses := tup.MustGet("CourseList").(nested.ListValue)
	if len(courses) != 2 {
		t.Fatalf("courses = %v", courses)
	}
	if courses[0].MustGet("CName").String() != "DB & Web" {
		t.Errorf("first course = %q (entities + trim)", courses[0].MustGet("CName"))
	}
	if courses[1].MustGet("ToCourse").String() != "http://u/c/2" {
		t.Errorf("second link = %q", courses[1].MustGet("ToCourse"))
	}
}
