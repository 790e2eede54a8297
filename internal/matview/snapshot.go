package matview

import (
	"fmt"
	"sort"
	"time"

	"ulixes/internal/nested"
)

// Snapshot is an immutable copy of the store's materialized state at one
// instant: every stored page keyed by URL, taken under the store lock so a
// consumer (the view-answering layer) can evaluate navigations against it
// without racing concurrent maintenance. Page tuples are shared, not deep
// copied — stored tuples are never mutated in place, only replaced.
type Snapshot struct {
	pages map[string]StoredPage
}

// Snapshot returns the current materialized state. Callers iterate and look
// up pages freely; the snapshot never changes after it is taken.
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]StoredPage, len(s.pages))
	for u, p := range s.pages {
		out[u] = *p
	}
	return &Snapshot{pages: out}
}

// Len returns the number of pages in the snapshot.
func (sn *Snapshot) Len() int { return len(sn.pages) }

// Page looks up one page by URL.
func (sn *Snapshot) Page(url string) (StoredPage, bool) {
	p, ok := sn.pages[url]
	return p, ok
}

// URLs returns the snapshot's URLs in sorted order.
func (sn *Snapshot) URLs() []string {
	out := make([]string, 0, len(sn.pages))
	for u := range sn.pages {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Schemes returns the distinct page-schemes present, sorted — the view
// definition side of the materialization: which portions of the site the
// store actually holds.
func (sn *Snapshot) Schemes() []string {
	seen := make(map[string]bool)
	for _, p := range sn.pages {
		seen[p.Scheme] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// PagesOf returns the snapshot's pages of one scheme, sorted by URL.
func (sn *Snapshot) PagesOf(scheme string) []StoredPage {
	urls := make([]string, 0, len(sn.pages))
	for u, p := range sn.pages {
		if p.Scheme == scheme {
			urls = append(urls, u)
		}
	}
	sort.Strings(urls)
	out := make([]StoredPage, len(urls))
	for i, u := range urls {
		out[i] = sn.pages[u]
	}
	return out
}

// OldestAccess returns the earliest access date across the snapshot's pages
// — the freshness bound of anything computed from it: every page was
// verified against the site no earlier than this. ok is false for an empty
// snapshot.
func (sn *Snapshot) OldestAccess() (time.Time, bool) {
	var oldest time.Time
	found := false
	for _, p := range sn.pages {
		if !found || p.AccessDate.Before(oldest) {
			oldest = p.AccessDate
			found = true
		}
	}
	return oldest, found
}

// Bytes estimates the snapshot's storage footprint as the summed canonical
// encoding length of the stored tuples — the quantity a storage budget for
// materialized views is charged against.
func (sn *Snapshot) Bytes() int64 {
	var total int64
	for _, p := range sn.pages {
		total += int64(len(p.Tuple.Key()))
	}
	return total
}

// ErrNotMaterialized reports that a snapshot evaluation touched a URL the
// store does not hold — the materialization does not cover the navigation,
// so nothing sound can be computed from it locally.
type ErrNotMaterialized struct {
	URL    string
	Scheme string
}

// Error implements error.
func (e *ErrNotMaterialized) Error() string {
	return fmt.Sprintf("matview: page %s (%s) is not materialized", e.URL, e.Scheme)
}

// Source returns a nalg.Source evaluating purely against the snapshot: no
// network, no maintenance, no light connections. A URL the snapshot does not
// hold is an *ErrNotMaterialized error rather than a silently dangling link —
// a missing page means the local state cannot soundly answer for the site,
// and the caller must fall back to live navigation.
func (sn *Snapshot) Source() *SnapshotSource { return &SnapshotSource{sn: sn} }

// SnapshotSource implements nalg.Source over an immutable Snapshot. It is
// safe for concurrent use (the snapshot is read-only) and deterministic: the
// same snapshot always yields the same tuples.
type SnapshotSource struct {
	sn *Snapshot
}

// EntryPage implements nalg.Source.
func (s *SnapshotSource) EntryPage(scheme, url string) (nested.Tuple, error) {
	return s.lookup(scheme, url)
}

// FollowPages implements nalg.Source: every URL must be materialized.
func (s *SnapshotSource) FollowPages(scheme string, urls []string) ([]nested.Tuple, error) {
	out := make([]nested.Tuple, 0, len(urls))
	for _, u := range urls {
		t, err := s.lookup(scheme, u)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// ReadyPages implements nalg.Source: every page the snapshot holds is
// ready. A URL it does not hold is left for FollowPages, which reports it.
func (s *SnapshotSource) ReadyPages(scheme string, urls []string, pages []nested.Tuple) (int, error) {
	n := 0
	for i, u := range urls {
		t, err := s.lookup(scheme, u)
		if err != nil {
			pages[i] = nested.Tuple{}
			continue
		}
		pages[i] = t
		n++
	}
	return n, nil
}

func (s *SnapshotSource) lookup(scheme, url string) (nested.Tuple, error) {
	p, ok := s.sn.pages[url]
	if !ok || p.Scheme != scheme {
		return nested.Tuple{}, &ErrNotMaterialized{URL: url, Scheme: scheme}
	}
	return p.Tuple, nil
}
