package adm

import "ulixes/internal/nested"

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

// Walk visits every page reachable from the entry points, breadth-first and
// each URL once. fetch downloads and wraps one page; the links of the tuple
// it returns are queued under the page-scheme their attribute targets, so
// every page is fetched as the scheme that reaches it. Walk stops at the
// first error fetch returns.
func (s *Scheme) Walk(fetch func(scheme, url string) (nested.Tuple, error)) error {
	type page struct{ scheme, url string }
	var queue []page
	seen := make(map[string]bool)
	enqueue := func(url, scheme string) {
		if !seen[url] {
			seen[url] = true
			queue = append(queue, page{scheme, url})
		}
	}
	for _, ep := range s.Entry {
		enqueue(ep.URL, ep.Scheme)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		t, err := fetch(cur.scheme, cur.url)
		if err != nil {
			return err
		}
		s.Outlinks(cur.scheme, t, enqueue)
	}
	return nil
}
