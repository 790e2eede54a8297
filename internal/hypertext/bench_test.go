package hypertext

import (
	"testing"

	"ulixes/internal/adm"
	"ulixes/internal/sitegen"
)

func benchPage(b *testing.B) (*adm.PageScheme, string, string) {
	b.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		b.Fatal(err)
	}
	ps := u.Scheme.Page(sitegen.ProfListPage)
	tup, _ := u.Instance.Page(sitegen.ProfListPage, sitegen.UnivProfListURL)
	html, err := RenderPage(ps, tup)
	if err != nil {
		b.Fatal(err)
	}
	return ps, sitegen.UnivProfListURL, html
}

// BenchmarkRenderPage measures renderer throughput on a 20-entry list page.
func BenchmarkRenderPage(b *testing.B) {
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		b.Fatal(err)
	}
	ps := u.Scheme.Page(sitegen.ProfListPage)
	tup, _ := u.Instance.Page(sitegen.ProfListPage, sitegen.UnivProfListURL)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RenderPage(ps, tup); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWrapPage measures the wrapper: one pass of lexing and extraction.
func BenchmarkWrapPage(b *testing.B) {
	ps, url, html := benchPage(b)
	b.SetBytes(int64(len(html)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WrapPage(ps, url, html); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTokenize isolates the lexer.
func BenchmarkTokenize(b *testing.B) {
	_, _, html := benchPage(b)
	b.SetBytes(int64(len(html)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Tokenize(html); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLex isolates the zero-copy lexer: token views are consumed in
// place, with no []Token materialization (the wrapper's warm path).
func BenchmarkLex(b *testing.B) {
	_, _, html := benchPage(b)
	b.SetBytes(int64(len(html)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := NewLexer(html)
		for {
			_, ok, err := l.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
	}
}

// BenchmarkUnescapeNoEntities measures the UnescapeHTML fast path: input
// without decodable entities must be returned as-is, with zero allocations.
func BenchmarkUnescapeNoEntities(b *testing.B) {
	const s = "Introduction to Databases and Information Systems, Fall session"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := UnescapeHTML(s); len(got) != len(s) {
			b.Fatal("fast path changed the string")
		}
	}
}
