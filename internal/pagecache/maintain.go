package pagecache

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"ulixes/internal/nested"
	"ulixes/internal/site"
)

// linkDiff is what one re-download changed in a stored page's outlinks:
// the links that appeared and the links that disappeared (Function 2,
// lines 6-10).
type linkDiff struct {
	added, removed []string
}

// diffLocked compares a stored page's outlinks with its new version's. A
// link that disappeared is queued in CheckMissing: the page it pointed to
// may have been deleted. It returns nil when the links did not change. The
// caller holds c.mu.
func (c *Cache) diffLocked(scheme string, old, cur nested.Tuple) *linkDiff {
	links := func(t nested.Tuple) map[string]bool {
		out := make(map[string]bool)
		c.ws.Outlinks(scheme, t, func(url, _ string) { out[url] = true })
		return out
	}
	was, now := links(old), links(cur)
	var d linkDiff
	for u := range now {
		if !was[u] {
			d.added = append(d.added, u)
		}
	}
	for u := range was {
		if !now[u] {
			d.removed = append(d.removed, u)
			if c.missing == nil {
				c.missing = make(map[string]bool)
			}
			c.missing[u] = true
		}
	}
	if d.added == nil && d.removed == nil {
		return nil
	}
	return &d
}

// Maintenance is the §8 maintenance ledger of a store, under the names a
// materialized view reports it: light connections, downloads, and the
// updates and deletions they applied.
type Maintenance struct {
	LightConnections int `json:"lightConnections"`
	Downloads        int `json:"downloads"`
	UpdatesApplied   int `json:"updatesApplied"`
	DeletionsApplied int `json:"deletionsApplied"`
	// StaleServes counts accesses answered from the stored copy without
	// confirmation because the origin's circuit breaker was open.
	StaleServes int `json:"staleServes,omitempty"`
}

// Maintenance returns the store's counters as a maintenance ledger.
func (c *Cache) Maintenance() Maintenance {
	st := c.Stats()
	return Maintenance{
		LightConnections: st.LightConnections,
		Downloads:        st.Fetches,
		UpdatesApplied:   st.UpdatesApplied,
		DeletionsApplied: st.DeletionsApplied,
		StaleServes:      st.Stale,
	}
}

// MissingQueue returns the URLs queued in CheckMissing, sorted.
func (c *Cache) MissingQueue() []string {
	c.mu.Lock()
	out := make([]string, 0, len(c.missing))
	for u := range c.missing {
		out = append(out, u)
	}
	c.mu.Unlock()
	sort.Strings(out)
	return out
}

// ProcessMissing is the deferred off-line check of the CheckMissing queue
// (§8): each queued URL is probed with a light connection, in sorted order
// and outside the store lock, and a stored page the site no longer has is
// removed. A page still alive stays, since another page may link to it. A
// probe that fails for another reason stops the pass with that URL and the
// rest still queued. It returns the number of pages removed.
func (c *Cache) ProcessMissing(ctx context.Context) (int, error) {
	deleted := 0
	for _, u := range c.MissingQueue() {
		_, n, err := c.net.Head(ctx, u)
		c.noteTraffic(n)
		gone := errors.Is(err, site.ErrNotFound)
		if err != nil && !gone {
			return deleted, err
		}
		c.mu.Lock()
		delete(c.missing, u)
		if e, ok := c.entries[u]; ok && gone {
			c.removeLocked(e)
			c.stats.DeletionsApplied++
			deleted++
		}
		c.mu.Unlock()
	}
	return deleted, nil
}

// RefreshURL applies one push event to the store: the page at url is
// verified now, with one light connection and a download only if the site
// reports it changed, instead of waiting for the next access. scheme may be
// empty when the page is stored (its stored scheme is used); a page the
// store does not hold is downloaded. It reports whether the stored page
// changed: replaced, added or deleted. A page of a scheme the store does
// not retain has nothing to maintain. When the origin's breaker is open the
// stored copy is kept and the deferral is a site.ErrBreakerOpen error, so
// the caller knows the verification did not happen.
func (c *Cache) RefreshURL(ctx context.Context, url, scheme string) (changed bool, err error) {
	c.mu.Lock()
	e, had := c.entries[url]
	if had {
		scheme = e.scheme
	}
	c.mu.Unlock()
	if scheme == "" {
		return false, fmt.Errorf("pagecache: refresh of %s: unknown page-scheme", url)
	}
	if !c.Retained(scheme) {
		return false, nil
	}
	res, err := c.access(ctx, scheme, url, &instant{}, verify)
	switch {
	case errors.Is(err, site.ErrNotFound):
		return had, nil
	case err != nil:
		return false, err
	case res.stale:
		return false, fmt.Errorf("pagecache: refresh of %s deferred: %w", url, site.ErrBreakerOpen)
	}
	return res.fetched, nil
}

// RemoveURL drops the stored page at url in answer to a push Removed event:
// the feed already saw the deletion, so no probe is made. It reports
// whether a page was removed, and counts the deletion.
func (c *Cache) RemoveURL(url string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.missing, url)
	e, ok := c.entries[url]
	if !ok {
		return false
	}
	c.removeLocked(e)
	c.stats.DeletionsApplied++
	return true
}

// Refresh re-verifies every stored page, in URL order: the periodic
// full-view consistency pass of the end of §8. It returns how many pages
// were updated or deleted, and the sorted URLs that could not be verified.
// An unreachable page (any failure but a clean 404) does not stop the
// pass: its stored copy is kept, so the view stays answerable, and the
// next pass retries it. A page the origin's open breaker serves stale is
// kept and counted in Stats.Stale, not reported.
func (c *Cache) Refresh(ctx context.Context) (updated, deleted int, stale []string) {
	c.mu.Lock()
	urls := make([]string, 0, len(c.entries))
	schemes := make(map[string]string, len(c.entries))
	for u, e := range c.entries {
		urls = append(urls, u)
		schemes[u] = e.scheme
	}
	c.mu.Unlock()
	sort.Strings(urls)
	for _, u := range urls {
		res, err := c.access(ctx, schemes[u], u, &instant{}, verify)
		switch {
		case errors.Is(err, site.ErrNotFound):
			deleted++
		case err != nil:
			stale = append(stale, u)
		case res.fetched:
			updated++
		}
	}
	return updated, deleted, stale
}

// StoredPage is one page a Snapshot holds: its page-scheme, wrapped tuple
// and the Last-Modified date the site reported when it was downloaded.
type StoredPage struct {
	Scheme       string
	Tuple        nested.Tuple
	LastModified time.Time
}

// Snapshot is an immutable copy of the store's pages at one instant, taken
// under the store lock, so a consumer (the view-answering layer) can
// evaluate navigations over it while queries and maintenance go on. Tuples
// are shared, not copied: a stored tuple is replaced, never changed.
//
// A Snapshot is a nalg.Source that never touches the network: a URL it does
// not hold, or holds under another page-scheme, is an ErrNotStored error
// rather than a dangling link, because the snapshot then cannot answer for
// the site.
type Snapshot struct {
	pages map[string]StoredPage
}

// Snapshot returns the store's current pages.
func (c *Cache) Snapshot() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]StoredPage, len(c.entries))
	for u, e := range c.entries {
		out[u] = StoredPage{Scheme: e.scheme, Tuple: e.tuple, LastModified: e.lastMod}
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

// ErrNotStored reports that a snapshot evaluation reached a page the
// snapshot does not hold: never stored, evicted by the byte bound, or
// dropped by maintenance.
var ErrNotStored = errors.New("pagecache: page not stored")

// EntryPage implements nalg.Source.
func (sn *Snapshot) EntryPage(scheme, url string) (nested.Tuple, error) {
	return sn.lookup(scheme, url)
}

// FollowPages implements nalg.Source: every URL must be stored.
func (sn *Snapshot) FollowPages(scheme string, urls []string) ([]nested.Tuple, error) {
	out := make([]nested.Tuple, 0, len(urls))
	for _, u := range urls {
		t, err := sn.lookup(scheme, u)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// ReadyPages implements nalg.Source: every page the snapshot holds is
// ready. A URL it does not hold is left for FollowPages, which reports it.
func (sn *Snapshot) ReadyPages(scheme string, urls []string, pages []nested.Tuple) (int, error) {
	n := 0
	for i, u := range urls {
		t, err := sn.lookup(scheme, u)
		pages[i] = t
		if err == nil {
			n++
		}
	}
	return n, nil
}

func (sn *Snapshot) lookup(scheme, url string) (nested.Tuple, error) {
	p, ok := sn.pages[url]
	if !ok || p.Scheme != scheme {
		return nested.Tuple{}, fmt.Errorf("%w: %s (%s)", ErrNotStored, url, scheme)
	}
	return p.Tuple, nil
}
