// Package hypertext renders ADM page instances to HTML and wraps HTML pages
// back into nested tuples. It plays the role of the wrappers the paper
// assumes ([10, 8, 16] in its references): the simulated site serves only
// HTML, and the query system must download and wrap pages to see them as
// instances of page-schemes.
//
// The renderer emits semantic markers (data-attr attributes) so pages remain
// ordinary HTML while staying mechanically wrappable; the wrapper reads the
// page's HTML tokens in one pass, guided by the page-scheme, not a string
// matcher, and tolerates whitespace, comments, foreign markup and attribute
// reordering.
package hypertext

import (
	"fmt"
	"strings"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
)

// SchemeMeta is the <meta> name carrying the page-scheme name.
const SchemeMeta = "page-scheme"

// htmlEscaper escapes the five HTML special characters. A Replacer is safe
// for concurrent use, so one serves every call.
var htmlEscaper = strings.NewReplacer(
	"&", "&amp;",
	"<", "&lt;",
	">", "&gt;",
	`"`, "&quot;",
	"'", "&#39;",
)

// EscapeHTML escapes the five HTML special characters in text content and
// attribute values.
func EscapeHTML(s string) string { return htmlEscaper.Replace(s) }

// RenderPage renders one page tuple of the given page-scheme to HTML.
// Null-valued optional attributes are simply omitted from the page, the way
// a real site omits an empty section.
func RenderPage(scheme *adm.PageScheme, t nested.Tuple) (string, error) {
	if err := t.CheckAgainst(scheme.TupleType()); err != nil {
		return "", fmt.Errorf("hypertext: render %s: %v", scheme.Name, err)
	}
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html>\n<html>\n<head>\n")
	fmt.Fprintf(&sb, "<meta name=%q content=%q>\n", SchemeMeta, scheme.Name)
	title := scheme.Name
	if v, ok := t.Get("Title"); ok && !v.IsNull() {
		title = v.String()
	} else if v, ok := t.Get("Name"); ok && !v.IsNull() {
		title = v.String()
	}
	fmt.Fprintf(&sb, "<title>%s</title>\n</head>\n<body>\n", EscapeHTML(title))
	sb.WriteString("<!-- rendered by ulixes sitegen -->\n")
	if err := renderFields(&sb, scheme.Attrs, t, 0); err != nil {
		return "", err
	}
	sb.WriteString("</body>\n</html>\n")
	return sb.String(), nil
}

func indent(sb *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
}

func renderFields(sb *strings.Builder, fields []nested.Field, t nested.Tuple, depth int) error {
	for _, f := range fields {
		v, ok := t.Get(f.Name)
		if !ok {
			return fmt.Errorf("hypertext: tuple missing attribute %q", f.Name)
		}
		if v.IsNull() {
			continue
		}
		if err := renderValue(sb, f, v, depth); err != nil {
			return err
		}
	}
	return nil
}

func renderValue(sb *strings.Builder, f nested.Field, v nested.Value, depth int) error {
	indent(sb, depth)
	switch f.Type.Kind {
	case nested.KindText:
		tv, ok := v.(nested.TextValue)
		if !ok {
			return fmt.Errorf("hypertext: attribute %q: expected text, got %T", f.Name, v)
		}
		fmt.Fprintf(sb, "<span data-attr=%q>%s</span>\n", f.Name, EscapeHTML(string(tv)))
	case nested.KindImage:
		iv, ok := v.(nested.ImageValue)
		if !ok {
			return fmt.Errorf("hypertext: attribute %q: expected image, got %T", f.Name, v)
		}
		fmt.Fprintf(sb, "<img data-attr=%q src=%q alt=%q>\n", f.Name, EscapeHTML(string(iv)), f.Name)
	case nested.KindLink:
		lv, ok := v.(nested.LinkValue)
		if !ok {
			return fmt.Errorf("hypertext: attribute %q: expected link, got %T", f.Name, v)
		}
		fmt.Fprintf(sb, "<a data-attr=%q href=%q>%s</a>\n", f.Name, EscapeHTML(string(lv)), EscapeHTML(f.Name))
	case nested.KindList:
		lv, ok := v.(nested.ListValue)
		if !ok {
			return fmt.Errorf("hypertext: attribute %q: expected list, got %T", f.Name, v)
		}
		fmt.Fprintf(sb, "<ul data-attr=%q>\n", f.Name)
		for _, elem := range lv {
			indent(sb, depth+1)
			sb.WriteString("<li>\n")
			if err := renderFields(sb, f.Type.Elem, elem, depth+2); err != nil {
				return err
			}
			indent(sb, depth+1)
			sb.WriteString("</li>\n")
		}
		indent(sb, depth)
		sb.WriteString("</ul>\n")
	default:
		return fmt.Errorf("hypertext: attribute %q has unknown kind %v", f.Name, f.Type.Kind)
	}
	return nil
}
