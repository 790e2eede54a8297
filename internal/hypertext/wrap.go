package hypertext

import (
	"bytes"
	"fmt"
	"strings"
	"sync"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
)

// schemeNames caches, per page-scheme, the tuple attribute-name slice
// (URL followed by the declared attributes). Every page wrapped under one
// scheme shares the same names slice — the interning the warm path relies
// on: millions of tuples, a handful of name arrays.
var schemeNames sync.Map // *adm.PageScheme -> []string

func namesFor(scheme *adm.PageScheme) []string {
	if v, ok := schemeNames.Load(scheme); ok {
		return v.([]string)
	}
	names := make([]string, 1+len(scheme.Attrs))
	names[0] = adm.URLAttr
	for i, f := range scheme.Attrs {
		names[i+1] = f.Name
	}
	v, _ := schemeNames.LoadOrStore(scheme, names)
	return v.([]string)
}

// elemNames caches the element-tuple name slice of a list field, keyed by
// the identity of the field's element slice.
var elemNames sync.Map // *nested.Field -> []string

func namesForElems(fields []nested.Field) []string {
	if len(fields) == 0 {
		return nil
	}
	key := &fields[0]
	if v, ok := elemNames.Load(key); ok {
		return v.([]string)
	}
	names := make([]string, len(fields))
	for i, f := range fields {
		names[i] = f.Name
	}
	v, _ := elemNames.LoadOrStore(key, names)
	return v.([]string)
}

// WrapPage extracts the nested tuple an HTML page represents under the
// given page-scheme, in one pass over the page's tokens; url becomes the
// implicit URL attribute. The first <meta name="page-scheme"> must name the
// scheme. A field is the first element, in document order, in the first
// <body> (or the page, without one) that carries data-attr=<field name>,
// not looking inside a <ul> that carries any data-attr. A text field wraps
// to the element's text, trimmed; a link to its href; an image to its src;
// a list, marked on a <ul>, to one element tuple per <li> child, whose
// fields are looked up in that <li>. A missing optional field wraps to
// Null; a missing mandatory one is an error. An end tag closes the nearest
// open element of its name and those opened after it, or is ignored. An
// element still open at the end is an error, so the whole page is read
// even once every field is found: a truncated page fails to wrap.
func WrapPage(scheme *adm.PageScheme, url, html string) (nested.Tuple, error) {
	w := wrappers.Get().(*wrapper)
	defer wrappers.Put(w)
	if err := w.run(scheme, html); err != nil {
		return nested.Tuple{}, err
	}
	names := namesFor(scheme)
	vals := make([]nested.Value, len(names))
	vals[0] = nested.LinkValue(url)
	copy(vals[1:1+len(scheme.Attrs)], w.vals) // panics if names were cached before the scheme grew
	return nested.TrustedTuple(names, vals), nil
}

// wrappers pools wrapper state, so a page allocates only the values it
// returns. A pooled wrapper keeps views of the last page it read.
var wrappers = sync.Pool{New: func() any { return new(wrapper) }}

type wrapper struct {
	lex    Lexer
	scheme *adm.PageScheme
	frames []frame        // open elements; frames[0] is the document
	texts  []text         // the text fields being read, innermost last
	vals   []nested.Value // each open scope's fields, then each open list's finished elements
	body   bool           // the first <body> has opened
	meta   bool           // the page-scheme marker has been checked
	err    error          // the first extraction error
}

// A role is what closing an element finishes.
type role uint8

const (
	plain     role = iota
	textRole       // a text field
	listRole       // a list field's <ul>
	itemRole       // an <li> of a list field: a scope, one element tuple
	scopeRole      // the document or the first <body>: the page's scope
)

type frame struct {
	tag    string
	search int // frames index of the scope whose field search covers the element's children, or -1
	role   role
	fields []nested.Field // a scope's fields, or a list's element fields
	base   int            // a scope's fields[i] is vals[base+i]; a list's elements start at vals[base]
	slot   int            // a list field's index in vals
	n      int            // a list's finished elements
}

// A text is a text field being read.
type text struct {
	slot int
	one  string // its one text token so far
	buf  []byte // its text, once a second token arrives
}

func (w *wrapper) run(scheme *adm.PageScheme, html string) error {
	*w = wrapper{lex: Lexer{src: html, attrs: w.lex.attrs}, scheme: scheme, frames: w.frames[:0], texts: w.texts[:0], vals: w.vals[:0]}
	w.frames = append(w.frames, frame{})
	w.scope(&w.frames[0], scheme.Attrs, scopeRole)
	tok := &w.lex.tok
	ok, err := w.lex.scan()
	for ; ok; ok, err = w.lex.scan() {
		switch tok.Kind {
		case TokenText:
			for i := range w.texts {
				w.texts[i].add(tok.Text)
			}
		case TokenStartTag, TokenSelfClosing:
			if tok.Tag == "meta" && !w.meta {
				if name, _ := tok.Get("name"); name == SchemeMeta {
					w.meta = true
					if content, _ := tok.Get("content"); content != scheme.Name {
						return fmt.Errorf("hypertext: page declares scheme %q, wrapper expects %q", content, scheme.Name)
					}
				}
			}
			w.push(tok)
			if tok.Kind == TokenSelfClosing {
				w.popTo(len(w.frames) - 1)
			}
		case TokenEndTag:
			for k := len(w.frames) - 1; k >= 1; k-- {
				if w.frames[k].tag == tok.Tag {
					w.popTo(k)
					break
				}
			}
		}
	}
	if err != nil {
		return fmt.Errorf("hypertext: wrap %s: %v", scheme.Name, err)
	}
	if len(w.frames) > 1 {
		return fmt.Errorf("hypertext: wrap %s: unclosed element <%s>", scheme.Name, w.frames[len(w.frames)-1].tag)
	}
	w.popTo(0)
	return w.err
}

// push opens the element of a start or self-closing tag.
func (w *wrapper) push(tok *Token) {
	parent := len(w.frames) - 1
	w.frames = append(w.frames, frame{tag: tok.Tag, search: w.frames[parent].search})
	f := &w.frames[parent+1]
	switch {
	case tok.Tag == "body" && !w.body:
		// Fields live in the first <body>: forget what the document
		// scope found before it.
		w.body = true
		for i := range w.frames[:parent+1] {
			w.frames[i].search, w.frames[i].role = -1, plain
		}
		w.texts, w.vals, w.err = w.texts[:0], w.vals[:0], nil
		w.scope(f, w.scheme.Attrs, scopeRole)
	case tok.Tag == "li" && w.frames[parent].role == listRole:
		w.scope(f, w.frames[parent].fields, itemRole)
	default:
		mark, marked := tok.Get("data-attr")
		if !marked {
			break
		}
		if f.search >= 0 {
			w.match(f, &w.frames[f.search], mark, tok)
		}
		if tok.Tag == "ul" {
			f.search = -1
		}
	}
}

// scope makes the innermost open element f a scope over fields.
func (w *wrapper) scope(f *frame, fields []nested.Field, r role) {
	f.search, f.role, f.fields, f.base = len(w.frames)-1, r, fields, len(w.vals)
	w.vals = append(w.vals, make([]nested.Value, len(fields))...)
}

// match fills the field named mark of the scope sc from the element f of
// tok, if it is the field's first element.
func (w *wrapper) match(f, sc *frame, mark string, tok *Token) {
	for i, fd := range sc.fields {
		if fd.Name != mark {
			continue
		}
		slot := sc.base + i
		if w.vals[slot] != nil {
			return
		}
		w.vals[slot] = nested.Null // found; text and lists are filled in at the element's end
		switch fd.Type.Kind {
		case nested.KindText:
			f.role = textRole
			w.texts = append(w.texts, text{slot: slot})
		case nested.KindImage:
			if src, ok := tok.Get("src"); ok {
				w.vals[slot] = nested.ImageValue(src)
			} else {
				w.fail(fmt.Errorf("hypertext: %s: image attribute %q has no src", w.scheme.Name, fd.Name))
			}
		case nested.KindLink:
			if href, ok := tok.Get("href"); ok {
				w.vals[slot] = nested.LinkValue(href)
			} else {
				w.fail(fmt.Errorf("hypertext: %s: link attribute %q has no href", w.scheme.Name, fd.Name))
			}
		case nested.KindList:
			if tok.Tag != "ul" {
				w.fail(fmt.Errorf("hypertext: %s: list attribute %q marked on <%s>, expected <ul>", w.scheme.Name, fd.Name, tok.Tag))
				return
			}
			f.role, f.fields, f.base, f.slot = listRole, fd.Type.Elem, len(w.vals), slot
		default:
			w.fail(fmt.Errorf("hypertext: %s: attribute %q has unknown kind", w.scheme.Name, fd.Name))
		}
		return
	}
}

// popTo closes frames[k:], innermost first.
func (w *wrapper) popTo(k int) {
	for i := len(w.frames) - 1; i >= k; i-- {
		switch f := &w.frames[i]; f.role {
		case textRole:
			w.vals[w.texts[len(w.texts)-1].slot] = w.texts[len(w.texts)-1].value()
			w.texts = w.texts[:len(w.texts)-1]
		case listRole:
			w.closeList(f)
		case itemRole, scopeRole:
			for j, fd := range f.fields {
				if v := &w.vals[f.base+j]; *v == nil && fd.Optional {
					*v = nested.Null
				} else if *v == nil {
					w.fail(fmt.Errorf("hypertext: %s: mandatory attribute %q not found in page", w.scheme.Name, fd.Name))
				}
			}
			if f.role == itemRole {
				w.frames[i-1].n++
			}
		}
	}
	w.frames = w.frames[:k]
}

// closeList moves list f's finished elements into one array and f's slot.
func (w *wrapper) closeList(f *frame) {
	var items nested.ListValue
	if f.n > 0 {
		names := namesForElems(f.fields)
		vals := append([]nested.Value(nil), w.vals[f.base:]...)
		m := len(f.fields)
		items = make(nested.ListValue, f.n)
		for i := range items {
			items[i] = nested.TrustedTuple(names, vals[i*m:(i+1)*m:(i+1)*m])
		}
	}
	w.vals = w.vals[:f.base]
	w.vals[f.slot] = items
}

func (w *wrapper) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

func (t *text) add(s string) {
	switch {
	case t.buf != nil:
		t.buf = append(t.buf, s...)
	case t.one == "": // text tokens are never empty
		t.one = s
	default:
		t.buf = append(append(make([]byte, 0, len(t.one)+len(s)), t.one...), s...)
	}
}

func (t *text) value() nested.Value {
	if t.buf != nil {
		return nested.TextValue(bytes.TrimSpace(t.buf))
	}
	return nested.TextValue(strings.TrimSpace(t.one))
}
