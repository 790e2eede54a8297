package hypertext

import (
	"fmt"
	"strings"
	"testing"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
)

// This file holds the test oracles: Tokenize, which materializes the
// Lexer's token stream, and wrapTree, a wrapper that builds an element tree
// and walks it once per field. WrapPage must agree with wrapTree on every
// page: the same tuple, or an error from both (FuzzWrapPage).

// Tokenize lexes an HTML document into tokens, copying each token's
// attributes out of the lexer's reused buffer.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	var tokens []Token
	for {
		tok, ok, err := l.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return tokens, nil
		}
		if len(tok.Attrs) > 0 {
			tok.Attrs = append([]Attr(nil), tok.Attrs...)
		} else {
			// An empty Attrs slice still aliases the lexer's reused buffer
			// (zero length, shared capacity); drop the alias entirely.
			tok.Attrs = nil
		}
		tokens = append(tokens, tok)
	}
}

// Node is an element of a parsed HTML tree, or a text node (Tag "#text",
// Text set). Kids are in document order.
type Node struct {
	Tag   string
	Attrs []Attr
	Kids  []*Node
	Text  string
}

const textTag = "#text"

// Attr returns the value of the first attribute with the given key and
// whether there is one.
func (n *Node) Attr(key string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// InnerText returns the text of the node's subtree in document order,
// whitespace-trimmed.
func (n *Node) InnerText() string {
	var sb strings.Builder
	var walk func(m *Node)
	walk = func(m *Node) {
		sb.WriteString(m.Text)
		for _, k := range m.Kids {
			walk(k)
		}
	}
	walk(n)
	return strings.TrimSpace(sb.String())
}

// parseTree builds an element tree from an HTML document. The returned
// node is a synthetic root whose children are the document's top-level
// nodes. An end tag pops to the nearest matching open element; one with no
// match is ignored; elements left open are an error.
func parseTree(src string) (*Node, error) {
	l := NewLexer(src)
	root := &Node{Tag: "#root"}
	stack := []*Node{root}
	top := func() *Node { return stack[len(stack)-1] }
	for {
		tok, ok, err := l.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch tok.Kind {
		case TokenText:
			top().Kids = append(top().Kids, &Node{Tag: textTag, Text: tok.Text})
		case TokenSelfClosing:
			top().Kids = append(top().Kids, &Node{Tag: tok.Tag, Attrs: append([]Attr(nil), tok.Attrs...)})
		case TokenStartTag:
			n := &Node{Tag: tok.Tag, Attrs: append([]Attr(nil), tok.Attrs...)}
			top().Kids = append(top().Kids, n)
			stack = append(stack, n)
		case TokenEndTag:
			for k := len(stack) - 1; k >= 1; k-- {
				if stack[k].Tag == tok.Tag {
					stack = stack[:k]
					break
				}
			}
		}
	}
	if len(stack) != 1 {
		open := make([]string, 0, len(stack)-1)
		for _, n := range stack[1:] {
			open = append(open, n.Tag)
		}
		return nil, fmt.Errorf("hypertext: unclosed elements: %s", strings.Join(open, ", "))
	}
	return root, nil
}

// Find returns the first descendant (depth-first, document order) for which
// pred is true, or nil.
func (n *Node) Find(pred func(*Node) bool) *Node {
	for _, k := range n.Kids {
		if pred(k) {
			return k
		}
		if m := k.Find(pred); m != nil {
			return m
		}
	}
	return nil
}

// FindAll appends every descendant for which pred is true, in document
// order.
func (n *Node) FindAll(pred func(*Node) bool, dst []*Node) []*Node {
	for _, k := range n.Kids {
		if pred(k) {
			dst = append(dst, k)
		}
		dst = k.FindAll(pred, dst)
	}
	return dst
}

// wrapTree is WrapPage over a parsed tree: it parses the page, checks the
// scheme marker, and looks each field up in the first <body> by walking
// the tree.
func wrapTree(scheme *adm.PageScheme, url, html string) (nested.Tuple, error) {
	root, err := parseTree(html)
	if err != nil {
		return nested.Tuple{}, fmt.Errorf("hypertext: wrap %s: %v", scheme.Name, err)
	}
	if meta := root.Find(func(n *Node) bool {
		name, _ := n.Attr("name")
		return n.Tag == "meta" && name == SchemeMeta
	}); meta != nil {
		if content, _ := meta.Attr("content"); content != scheme.Name {
			return nested.Tuple{}, fmt.Errorf("hypertext: page declares scheme %q, wrapper expects %q", content, scheme.Name)
		}
	}
	body := root.Find(func(n *Node) bool { return n.Tag == "body" })
	if body == nil {
		body = root
	}
	names := namesFor(scheme)
	vals := make([]nested.Value, len(names))
	vals[0] = nested.LinkValue(url)
	for i, f := range scheme.Attrs {
		v, err := wrapField(body, f, scheme.Name)
		if err != nil {
			return nested.Tuple{}, err
		}
		vals[i+1] = v
	}
	return nested.TrustedTuple(names, vals), nil
}

func wrapField(container *Node, f nested.Field, schemeName string) (nested.Value, error) {
	node := findDataAttr(container, f.Name)
	if node == nil {
		if f.Optional {
			return nested.Null, nil
		}
		return nil, fmt.Errorf("hypertext: %s: mandatory attribute %q not found in page", schemeName, f.Name)
	}
	switch f.Type.Kind {
	case nested.KindText:
		return nested.TextValue(node.InnerText()), nil
	case nested.KindImage:
		src, ok := node.Attr("src")
		if !ok {
			return nil, fmt.Errorf("hypertext: %s: image attribute %q has no src", schemeName, f.Name)
		}
		return nested.ImageValue(src), nil
	case nested.KindLink:
		href, ok := node.Attr("href")
		if !ok {
			return nil, fmt.Errorf("hypertext: %s: link attribute %q has no href", schemeName, f.Name)
		}
		return nested.LinkValue(href), nil
	case nested.KindList:
		if node.Tag != "ul" {
			return nil, fmt.Errorf("hypertext: %s: list attribute %q marked on <%s>, expected <ul>", schemeName, f.Name, node.Tag)
		}
		names := namesForElems(f.Type.Elem)
		var list nested.ListValue
		for _, li := range node.Kids {
			if li.Tag != "li" {
				continue
			}
			vals := make([]nested.Value, len(names))
			for i, ef := range f.Type.Elem {
				v, err := wrapField(li, ef, schemeName)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			list = append(list, nested.TrustedTuple(names, vals))
		}
		return list, nil
	default:
		return nil, fmt.Errorf("hypertext: %s: attribute %q has unknown kind", schemeName, f.Name)
	}
}

// findDataAttr locates the first descendant carrying data-attr=name without
// descending into other data-attr-marked list containers (<ul data-attr=…>),
// so attributes of nested collections are not confused with attributes of
// the enclosing level.
func findDataAttr(n *Node, name string) *Node {
	for _, k := range n.Kids {
		if v, ok := k.Attr("data-attr"); ok && v == name {
			return k
		}
		if k.Tag == "ul" {
			if _, marked := k.Attr("data-attr"); marked {
				continue
			}
		}
		if m := findDataAttr(k, name); m != nil {
			return m
		}
	}
	return nil
}

func TestParseTree(t *testing.T) {
	root, err := parseTree(`<html><body><div id="a">x<span>y</span></div><div id="b"></div></body></html>`)
	if err != nil {
		t.Fatal(err)
	}
	body := root.Find(func(n *Node) bool { return n.Tag == "body" })
	if body == nil || len(body.Kids) != 2 {
		t.Fatalf("body kids = %v", body)
	}
	if got := body.Kids[0].InnerText(); got != "xy" {
		t.Errorf("InnerText = %q", got)
	}
	divs := root.FindAll(func(n *Node) bool { return n.Tag == "div" }, nil)
	if len(divs) != 2 {
		t.Errorf("FindAll found %d divs", len(divs))
	}
	if id, ok := divs[1].Attr("id"); !ok || id != "b" {
		t.Errorf("second div id = %q", id)
	}
	if root.Find(func(n *Node) bool { return n.Tag == "nope" }) != nil {
		t.Error("Find of absent tag should be nil")
	}
}

func TestParseRecoversStrayEndTags(t *testing.T) {
	root, err := parseTree(`<div><p>text</div>`)
	if err != nil {
		t.Fatal(err)
	}
	// <p> never closed but <div> close pops it.
	if len(root.Kids) != 1 || root.Kids[0].Tag != "div" {
		t.Errorf("tree = %+v", root.Kids)
	}
	if _, err := parseTree(`</stray><div>x</div>`); err != nil {
		t.Errorf("stray end tag should be ignored: %v", err)
	}
	if _, err := parseTree(`<div><span>`); err == nil {
		t.Error("unclosed elements should error")
	}
}
