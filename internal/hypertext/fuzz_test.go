package hypertext

import (
	"reflect"
	"testing"
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
		_, _ = Parse(src)
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
