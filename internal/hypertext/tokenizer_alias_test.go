package hypertext

import "testing"

// TestTokenizeAttrlessTokensDoNotAliasLexerBuffer is the regression test for
// an aliasing bug in Tokenize: a token with zero attributes used to
// keep a len-0 slice header pointing into the lexer's reused attribute
// buffer, so later appends through a retained token could scribble over
// attribute values the lexer wrote for other tokens. Attr-less tokens must
// carry a nil Attrs slice with no capacity.
func TestTokenizeAttrlessTokensDoNotAliasLexerBuffer(t *testing.T) {
	toks, err := Tokenize(`<a href="x">text</a><b>bold</b><br>`)
	if err != nil {
		t.Fatal(err)
	}
	var withAttrs, without int
	for i, tok := range toks {
		if len(tok.Attrs) > 0 {
			withAttrs++
			continue
		}
		without++
		if tok.Attrs != nil {
			t.Errorf("token %d (%v %q): attr-less token has non-nil Attrs", i, tok.Kind, tok.Tag)
		}
		if cap(tok.Attrs) != 0 {
			t.Errorf("token %d (%v %q): attr-less token has cap %d, aliases a shared buffer", i, tok.Kind, tok.Tag, cap(tok.Attrs))
		}
	}
	if withAttrs == 0 || without == 0 {
		t.Fatalf("test input must produce both attributed and attr-less tokens, got %d/%d", withAttrs, without)
	}
}

// TestTokenizeAttrsIndependent checks the copied-out attribute slices are
// writable without affecting each other — the property Tokenize exists to
// provide over driving the Lexer directly.
func TestTokenizeAttrsIndependent(t *testing.T) {
	toks, err := Tokenize(`<a href="one"></a><a href="two"></a>`)
	if err != nil {
		t.Fatal(err)
	}
	var attributed []*Token
	for i := range toks {
		if len(toks[i].Attrs) > 0 {
			attributed = append(attributed, &toks[i])
		}
	}
	if len(attributed) != 2 {
		t.Fatalf("want 2 attributed tokens, got %d", len(attributed))
	}
	attributed[0].Attrs[0].Val = "mutated"
	if got := attributed[1].Attrs[0].Val; got != "two" {
		t.Errorf("second token's attr changed to %q after mutating the first; slices alias", got)
	}
}
