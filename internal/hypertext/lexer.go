package hypertext

import (
	"fmt"
	"strings"
)

// TokenKind discriminates HTML tokens.
type TokenKind int

// Token kinds produced by the lexer.
const (
	TokenText TokenKind = iota
	TokenStartTag
	TokenEndTag
	TokenSelfClosing
	TokenDoctype
	TokenComment
)

// Token is one lexical HTML token.
type Token struct {
	Kind TokenKind
	// Tag is the lower-cased tag name for tag tokens.
	Tag string
	// Attrs are the tag attributes in document order.
	Attrs []Attr
	// Text is the raw text for text, doctype and comment tokens
	// (entity-decoded for text tokens).
	Text string
}

// Attr is one HTML attribute.
type Attr struct {
	Key string
	Val string
}

// Get returns the value of the first attribute with the given key and
// whether there is one.
func (t Token) Get(key string) (string, bool) {
	for _, a := range t.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// Lexer is a streaming HTML tokenizer. It handles doctype declarations,
// comments, quoted and unquoted attribute values, boolean attributes,
// self-closing syntax and void elements, but has no script/style raw-text
// states: enough for the data-carrying pages a wrappable site serves. Every
// string in a token is a view into the source unless a name needs
// lower-casing or a value an entity decoded.
type Lexer struct {
	src   string
	pos   int
	attrs []Attr // reused backing for Token.Attrs
	tok   Token  // the token scan read
}

// NewLexer returns a lexer over one HTML document.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token; ok is false at end of input. The returned
// token's Attrs slice aliases a buffer owned by the lexer and is valid
// only until the following Next call — callers that retain attributes must
// copy them.
func (l *Lexer) Next() (tok Token, ok bool, err error) {
	if ok, err := l.scan(); !ok {
		return Token{}, false, err
	}
	return l.tok, true, nil
}

// scan reads the next token into l.tok, which stays valid until the
// following scan; ok is false, and l.tok stale, at end of input or on an
// error.
func (l *Lexer) scan() (ok bool, err error) {
	src := l.src
	n := len(src)
	for l.pos < n {
		i := l.pos
		if src[i] != '<' {
			// Skip text that is only white space, and indentation without a search.
			j := i
			for j < n && class[src[j]]&blankByte != 0 {
				j++
			}
			if j == n || src[j] == '<' {
				l.pos = j
				continue
			}
			first := src[j]
			if k := strings.IndexByte(src[j:], '<'); k >= 0 {
				j += k
			} else {
				j = n
			}
			l.pos = j
			text := src[i:j]
			if first >= 0x80 && strings.TrimSpace(text) == "" { // non-ASCII white space
				continue
			}
			l.tok = Token{Kind: TokenText, Text: UnescapeHTML(text)}
			return true, nil
		}
		if strings.HasPrefix(src[i:], "<!--") {
			end := strings.Index(src[i+4:], "-->")
			if end < 0 {
				return false, fmt.Errorf("hypertext: unterminated comment at offset %d", i)
			}
			l.pos = i + 4 + end + 3
			l.tok = Token{Kind: TokenComment, Text: src[i+4 : i+4+end]}
			return true, nil
		}
		if strings.HasPrefix(src[i:], "<!") {
			end := strings.IndexByte(src[i:], '>')
			if end < 0 {
				return false, fmt.Errorf("hypertext: unterminated declaration at offset %d", i)
			}
			l.pos = i + end + 1
			l.tok = Token{Kind: TokenDoctype, Text: src[i+2 : i+end]}
			return true, nil
		}
		return l.tag(i)
	}
	return false, nil
}

// tag lexes the tag starting at offset i (src[i] == '<') into l.tok.
func (l *Lexer) tag(i int) (bool, error) {
	src := l.src
	n := len(src)
	closing := false
	j := i + 1
	if j < n && src[j] == '/' {
		closing = true
		j++
	}
	tag, j := l.name(j, tagByte)
	if tag == "" {
		return false, fmt.Errorf("hypertext: malformed tag at offset %d", i)
	}
	selfClose := false
	l.attrs = l.attrs[:0]
	// Attributes.
	for {
		for j < n && isSpace(src[j]) {
			j++
		}
		if j >= n {
			return false, fmt.Errorf("hypertext: unterminated tag %q at offset %d", tag, i)
		}
		if src[j] == '>' {
			j++
			break
		}
		if src[j] == '/' && j+1 < n && src[j+1] == '>' {
			selfClose = true
			j += 2
			break
		}
		var key string
		if key, j = l.name(j, attrByte); key == "" {
			return false, fmt.Errorf("hypertext: malformed attribute in tag %q at offset %d", tag, i)
		}
		val := ""
		for j < n && isSpace(src[j]) {
			j++
		}
		if j < n && src[j] == '=' {
			j++
			for j < n && isSpace(src[j]) {
				j++
			}
			if j >= n {
				return false, fmt.Errorf("hypertext: unterminated attribute %q at offset %d", key, i)
			}
			if q := src[j]; q == '"' || q == '\'' {
				end := strings.IndexByte(src[j+1:], q)
				if end < 0 {
					return false, fmt.Errorf("hypertext: unterminated quoted value for %q at offset %d", key, i)
				}
				val = UnescapeHTML(src[j+1 : j+1+end])
				j += end + 2
			} else {
				vs := j
				for j < n && !isSpace(src[j]) && src[j] != '>' {
					j++
				}
				val = UnescapeHTML(src[vs:j])
			}
		}
		l.attrs = append(l.attrs, Attr{Key: key, Val: val})
	}
	switch {
	case closing:
		l.tok = Token{Kind: TokenEndTag, Tag: tag}
	case selfClose || isVoid(tag):
		l.tok = Token{Kind: TokenSelfClosing, Tag: tag, Attrs: l.attrs}
	default:
		l.tok = Token{Kind: TokenStartTag, Tag: tag, Attrs: l.attrs}
	}
	l.pos = j
	return true, nil
}

// isVoid reports whether tag is an HTML element with no closing tag.
func isVoid(tag string) bool {
	switch tag {
	case "area", "base", "br", "col", "embed", "hr", "img", "input", "link",
		"meta", "param", "source", "track", "wbr":
		return true
	}
	return false
}

// name returns the name at src[j:] made of bytes of class c, lower-cased,
// and the offset past it. The name is a view unless it needs lower-casing.
func (l *Lexer) name(j int, c uint8) (string, int) {
	s, k, seen := l.src[j:], 0, uint8(0)
	for ; k < len(s) && class[s[k]]&c != 0; k++ {
		seen |= class[s[k]]
	}
	if seen&foldByte != 0 {
		return strings.ToLower(s[:k]), j + k
	}
	return s[:k], j + k
}

func isSpace(c byte) bool { return class[c]&space != 0 }

// Byte classes of the lexer.
const (
	space     = 1 << iota // white space between attributes
	tagByte               // may appear in a tag name
	attrByte              // may appear in an attribute name
	foldByte              // ToLower may change a name holding it: A-Z or non-ASCII
	blankByte             // ASCII white space to strings.TrimSpace
)

var class = func() (t [256]uint8) {
	for c := range t {
		switch {
		case strings.IndexByte(" \t\n\r\f", byte(c)) >= 0:
			t[c] = space | blankByte
		case c == '\v':
			t[c] = blankByte | attrByte
		case c == '=' || c == '>' || c == '/':
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == ':':
			t[c] = tagByte | attrByte
		case c >= 'A' && c <= 'Z':
			t[c] = tagByte | attrByte | foldByte
		case c >= 0x80:
			t[c] = attrByte | foldByte
		default:
			t[c] = attrByte
		}
	}
	return t
}()

// entityAt decodes the entity reference starting at s[i] (s[i] must be
// '&'). ok reports that a decodable entity starts there; width is the
// number of input bytes it spans, through the ';'.
func entityAt(s string, i int) (r rune, width int, ok bool) {
	semi := strings.IndexByte(s[i:], ';')
	if semi < 0 || semi > 10 {
		return 0, 0, false
	}
	ent := s[i+1 : i+semi]
	switch ent {
	case "amp":
		return '&', semi + 1, true
	case "lt":
		return '<', semi + 1, true
	case "gt":
		return '>', semi + 1, true
	case "quot":
		return '"', semi + 1, true
	case "apos":
		return '\'', semi + 1, true
	}
	if strings.HasPrefix(ent, "#") {
		n := 0
		valid := len(ent) > 1
		for _, c := range ent[1:] {
			if c < '0' || c > '9' {
				valid = false
				break
			}
			n = n*10 + int(c-'0')
		}
		if valid && n > 0 && n < 0x110000 {
			return rune(n), semi + 1, true
		}
	}
	return 0, 0, false
}

// UnescapeHTML decodes the five named entities the renderer produces plus
// decimal numeric references. When the input contains no decodable entity
// — including bare ampersands, as in "AT&T" — it is returned unchanged
// without allocating.
func UnescapeHTML(s string) string {
	// Find the first decodable entity; everything before it copies as-is.
	i := 0
	for {
		j := strings.IndexByte(s[i:], '&')
		if j < 0 {
			return s
		}
		i += j
		if _, _, ok := entityAt(s, i); ok {
			break
		}
		i++
	}
	var sb strings.Builder
	sb.Grow(len(s))
	sb.WriteString(s[:i])
	for i < len(s) {
		if s[i] != '&' {
			j := strings.IndexByte(s[i:], '&')
			if j < 0 {
				sb.WriteString(s[i:])
				break
			}
			sb.WriteString(s[i : i+j])
			i += j
			continue
		}
		if r, w, ok := entityAt(s, i); ok {
			sb.WriteRune(r)
			i += w
		} else {
			sb.WriteByte('&')
			i++
		}
	}
	return sb.String()
}
