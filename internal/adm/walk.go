package adm

import (
	"fmt"

	"ulixes/internal/nested"
)

// Outlinks calls fn with every link of t, a page of the named page-scheme:
// the link's URL and the page-scheme its attribute targets, in the order of
// Links and, within one attribute, of the values.
func (s *Scheme) Outlinks(scheme string, t nested.Tuple, fn func(url, target string)) {
	for _, ref := range s.Links() {
		if ref.Scheme != scheme {
			continue
		}
		target, _ := s.LinkTarget(ref) // Links returns link attributes only
		for _, v := range PathValues(t, ref.Path) {
			fn(v.String(), target)
		}
	}
}

// PageRef names one page of a walk: its URL and the page-scheme of the link
// that reaches it.
type PageRef struct{ Scheme, URL string }

// IsEntry reports whether p is one of the scheme's entry points, the pages
// a walk starts from rather than reaches by a link.
func (s *Scheme) IsEntry(p PageRef) bool {
	ep, ok := s.EntryPoint(p.Scheme)
	return ok && ep.URL == p.URL
}

// Walk visits every page reachable from the entry points, breadth-first and
// each URL once, handing fetch one level at a time. A level lists its pages
// in the order a first-in first-out walk of one page at a time would visit
// them, so a caller that consumes each level in order sees exactly that
// walk. fetch downloads and wraps the level and returns one tuple per page,
// in the level's order; a zero tuple stands for a page that is absent and
// has no links. The links of each tuple are queued under the page-scheme
// their attribute targets, so every page is fetched as the scheme that
// reaches it. Walk stops at the first error fetch returns.
func (s *Scheme) Walk(fetch func(level []PageRef) ([]nested.Tuple, error)) error {
	seen := make(map[string]bool)
	var next []PageRef
	enqueue := func(url, scheme string) {
		if !seen[url] {
			seen[url] = true
			next = append(next, PageRef{Scheme: scheme, URL: url})
		}
	}
	for _, ep := range s.Entry {
		enqueue(ep.URL, ep.Scheme)
	}
	for len(next) > 0 {
		level := next
		next = nil
		tuples, err := fetch(level)
		if err != nil {
			return err
		}
		if len(tuples) != len(level) {
			return fmt.Errorf("adm: walk fetched %d tuples for a level of %d pages", len(tuples), len(level))
		}
		for i, p := range level {
			s.Outlinks(p.Scheme, tuples[i], enqueue)
		}
	}
	return nil
}
