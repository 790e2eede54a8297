package hypertext

import (
	"testing"

	"ulixes/internal/adm"
	"ulixes/internal/race"
	"ulixes/internal/sitegen"
)

// wrapFixture renders the 20-entry professor-list page for wrap tests.
func wrapFixture(t *testing.T) (*adm.PageScheme, string, string) {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	ps := u.Scheme.Page(sitegen.ProfListPage)
	tup, _ := u.Instance.Page(sitegen.ProfListPage, sitegen.UnivProfListURL)
	html, err := RenderPage(ps, tup)
	if err != nil {
		t.Fatal(err)
	}
	return ps, sitegen.UnivProfListURL, html
}

// TestUnescapeFastPathReturnsInput: strings without decodable entities —
// including bare ampersands like "AT&T" — come back unchanged and without
// allocating a copy.
func TestUnescapeFastPathReturnsInput(t *testing.T) {
	cases := []string{
		"",
		"plain text with no markup",
		"AT&T",            // bare & is not a decodable entity
		"a & b & c",       // spaces after &
		"&nosuchentity;",  // unknown name is left as-is
		"&#x1F600;",       // hex form is not supported by the decoder
		"trailing &",      // & at end of string
		"&; &? &#; &#-1;", // malformed numeric forms
	}
	for _, s := range cases {
		if got := UnescapeHTML(s); got != s {
			t.Errorf("UnescapeHTML(%q) = %q, want input unchanged", s, got)
		}
	}
	if race.Enabled {
		t.Skip("allocation counting is skewed under -race")
	}
	for _, s := range cases {
		s := s
		if n := testing.AllocsPerRun(100, func() { _ = UnescapeHTML(s) }); n != 0 {
			t.Errorf("UnescapeHTML(%q) allocated %.0f times on the fast path, want 0", s, n)
		}
	}
}

// TestUnescapeDecodesEntities pins the slow path's behavior: real entities
// decode, and mixed content decodes around bare ampersands.
func TestUnescapeDecodesEntities(t *testing.T) {
	cases := map[string]string{
		"&amp;":              "&",
		"&lt;b&gt;":          "<b>",
		"&quot;hi&quot;":     `"hi"`,
		"&apos;":             "'",
		"&#65;&#66;":         "AB",
		"AT&T &amp; friends": "AT&T & friends",
		"x &amp y":           "x &amp y", // missing semicolon: left alone
	}
	for in, want := range cases {
		if got := UnescapeHTML(in); got != want {
			t.Errorf("UnescapeHTML(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWrapPageAllocBudget caps the wrapper's allocations on the 20-entry
// list page. WrapPage allocates 46 objects there: the page's value slice,
// one box per text or link value, and two arrays for the list (the
// element-tree wrapper before it allocated 197). The cap is under 10 %
// above that.
func TestWrapPageAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counting is skewed under -race")
	}
	ps, url, html := wrapFixture(t)
	n := testing.AllocsPerRun(50, func() {
		if _, err := WrapPage(ps, url, html); err != nil {
			t.Fatal(err)
		}
	})
	if n > 50 {
		t.Errorf("WrapPage allocated %.0f times, budget 50", n)
	}
}

// TestEscapeHTMLNoEscapeAllocs: text with nothing to escape is returned
// as-is, without building a replacer or copying.
func TestEscapeHTMLNoEscapeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counting is skewed under -race")
	}
	if n := testing.AllocsPerRun(100, func() { _ = EscapeHTML("plain text") }); n != 0 {
		t.Errorf("EscapeHTML(%q) allocated %.0f times, want 0", "plain text", n)
	}
}
