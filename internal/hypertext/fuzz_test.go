package hypertext

import (
	"reflect"
	"sync"
	"testing"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
	"ulixes/internal/sitegen"
)

// FuzzTokenize checks the HTML tokenizer never panics on arbitrary input.
func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		`<!DOCTYPE html><html><body class="x">a &amp; b<br><!-- c --></body></html>`,
		`<ul data-attr="L"><li><span data-attr=A>x</span></li></ul>`,
		`<div a='q' b=c d>`,
		`<<>>&#x;&#99999999;`,
		"plain text only",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Tokenize(src)
		if err != nil {
			return
		}
		// Parsing accepted token streams must not panic either.
		_, _ = parseTree(src)
		_ = toks
	})
}

// FuzzLexer checks the zero-copy Lexer against the materializing Tokenize
// on arbitrary (often malformed) HTML: neither may panic, both must agree
// on error/success, and driving the Lexer with attributes copied out per
// generation must reproduce Tokenize's stream exactly. This is the check on
// the lexer's zero-copy contract: a token's views are only valid until the
// next Next, and copying within the generation loses nothing.
func FuzzLexer(f *testing.F) {
	for _, seed := range []string{
		`<a href="x">text</a><b>bold</b><br>`,
		`<ul data-attr="L"><li><span data-attr=A>x</span></li></ul>`,
		`<div a='q' b=c d>`,
		`<!DOCTYPE html><!-- c --><p>&amp;</p>`,
		`<<a <b=">' &#x41;`,
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		want, wantErr := Tokenize(src)

		l := NewLexer(src)
		var got []Token
		var gotErr error
		for {
			tok, ok, err := l.Next()
			if err != nil {
				gotErr = err
				break
			}
			if !ok {
				break
			}
			// Copy the generation-scoped views before the next Next
			// invalidates them — the laundering idiom Tokenize uses.
			if len(tok.Attrs) > 0 {
				tok.Attrs = append([]Attr(nil), tok.Attrs...)
			} else {
				tok.Attrs = nil
			}
			got = append(got, tok)
		}

		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("error disagreement: Lexer=%v Tokenize=%v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("token stream disagreement for %q:\nlexer:    %+v\ntokenize: %+v", src, got, want)
		}
	})
}

// FuzzUnescapeHTML checks entity decoding never panics and is the inverse
// of escaping on the escape image.
func FuzzUnescapeHTML(f *testing.F) {
	f.Add("a&amp;b")
	f.Add("&#65;&#x41;&bogus;&")
	f.Add("")
	f.Fuzz(func(t *testing.T, src string) {
		_ = UnescapeHTML(src)
		if got := UnescapeHTML(EscapeHTML(src)); got != src {
			t.Fatalf("escape/unescape not inverse for %q: %q", src, got)
		}
	})
}

// fuzzPages are the rendered pages FuzzWrapPage mutates: every page of the
// paper's university and of a small bibliography.
var fuzzPages = sync.OnceValues(func() ([]fuzzPage, error) {
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		return nil, err
	}
	b, err := sitegen.GenerateBibliography(sitegen.BibliographyParams{
		Authors: 40, Confs: 4, DBConfs: 2, Years: 3, PapersPerEdition: 3, AuthorsPerPaper: 2, Seed: 11,
	})
	if err != nil {
		return nil, err
	}
	var pages []fuzzPage
	for _, site := range []*adm.Instance{u.Instance, b.Instance} {
		for _, name := range site.Scheme.PageNames() {
			ps := site.Scheme.Page(name)
			for _, tup := range site.Relation(name).Tuples() {
				html, err := RenderPage(ps, tup)
				if err != nil {
					return nil, err
				}
				pages = append(pages, fuzzPage{ps, tup.MustGet(adm.URLAttr).String(), html})
			}
		}
	}
	return pages, nil
})

type fuzzPage struct {
	scheme *adm.PageScheme
	url    string
	html   string
}

// mutate edits html by the program in ops, three bytes an edit: an
// operation (its low three bits; the rest picks a field name) and two
// positions. It deletes, duplicates and swaps byte
// ranges, and inserts tags (marked with the scheme's field names) and
// entities.
func mutate(ps *adm.PageScheme, html string, ops []byte) string {
	var names []string
	var collect func(fields []nested.Field)
	collect = func(fields []nested.Field) {
		for _, f := range fields {
			names = append(names, f.Name)
			collect(f.Type.Elem)
		}
	}
	collect(ps.Attrs)
	inserts := []string{
		"<li>", "</li>", "<ul>", "</ul>", "<body>", "</body>", "<b>", "</b>", "<br>", "<p/>", "</span>", "</a>",
		"<!-- x -->", "&amp;", "&lt;", "&#65;", "&bogus;", " &", "x",
		`<meta name="page-scheme" content="` + ps.Name + `">`, `<meta name="page-scheme" content="Other">`,
	}
	for len(ops) >= 3 && len(html) < 1<<16 {
		op, a, b := ops[0], int(ops[1])*len(html)/256, int(ops[2])*len(html)/256
		ops = ops[3:]
		if a > b {
			a, b = b, a
		}
		name := names[int(op/8)%len(names)]
		switch op % 8 {
		case 0: // delete
			html = html[:a] + html[b:]
		case 1: // duplicate
			html = html[:b] + html[a:b] + html[b:]
		case 2: // swap the two halves of [a, b)
			m := (a + b) / 2
			html = html[:a] + html[m:b] + html[a:m] + html[b:]
		case 3:
			html = html[:a] + inserts[b%len(inserts)] + html[a:]
		case 4:
			html = html[:a] + `<span data-attr="` + name + `">` + html[a:]
		case 5:
			html = html[:a] + `<ul data-attr="` + name + `">` + html[a:]
		case 6:
			html = html[:a] + `<a data-attr="` + name + `" href="h">` + html[a:]
		case 7:
			html = html[:a] + `<img data-attr="` + name + `">` + html[a:]
		}
	}
	return html
}

// FuzzWrapPage checks WrapPage against the tree oracle wrapTree on mutated
// rendered pages: both return the same tuple, or both fail.
func FuzzWrapPage(f *testing.F) {
	f.Add(uint16(2), []byte{})
	f.Add(uint16(0), []byte{0, 100, 120})
	f.Add(uint16(5), []byte{1, 30, 90, 2, 10, 200})
	f.Add(uint16(9), []byte{3, 128, 5, 4, 60, 0, 5, 80, 1})
	f.Add(uint16(40), []byte{6, 20, 0, 7, 200, 0, 3, 250, 4})
	f.Fuzz(func(t *testing.T, page uint16, ops []byte) {
		pages, err := fuzzPages()
		if err != nil {
			t.Fatal(err)
		}
		p := pages[int(page)%len(pages)]
		html := mutate(p.scheme, p.html, ops)
		got, gotErr := WrapPage(p.scheme, p.url, html)
		want, wantErr := wrapTree(p.scheme, p.url, html)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("WrapPage error %v, wrapTree error %v, on\n%s", gotErr, wantErr, html)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("WrapPage and wrapTree disagree on\n%s\nWrapPage: %v\nwrapTree: %v", html, got, want)
		}
	})
}
