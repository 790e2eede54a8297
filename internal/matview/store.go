// Package matview implements §8 of the paper: materialized views over web
// sites with lazy incremental maintenance. The ADM representation of the
// site is materialized locally (one nested page-relation per page-scheme,
// each tuple carrying its access date); queries run on the local relations,
// but before a page's tuple is used, a "light connection" (HTTP HEAD)
// checks whether the page changed on the site — only changed pages are
// re-downloaded. Queries therefore cost C(E) light connections plus one
// download per actually-updated page, and answering queries maintains the
// view as a side effect.
package matview

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
	"ulixes/internal/site"
)

// Status is the per-evaluation flag attached to URLs by Algorithm 3:
// none (unvisited), checked (verified this evaluation), new (link appeared
// in a freshly downloaded page), missing (link disappeared from its page).
type Status int

// Status values (Function 2 / Algorithm 3).
const (
	StatusNone Status = iota
	StatusChecked
	StatusNew
	StatusMissing
)

// String renders the status name.
func (s Status) String() string {
	switch s {
	case StatusNone:
		return "none"
	case StatusChecked:
		return "checked"
	case StatusNew:
		return "new"
	case StatusMissing:
		return "missing"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// StoredPage is one materialized page: its scheme, wrapped tuple and the
// access date — the Last-Modified timestamp the site reported when the page
// was downloaded, so a light connection can compare server time against
// server time (If-Modified-Since semantics).
type StoredPage struct {
	Scheme     string
	Tuple      nested.Tuple
	AccessDate time.Time
}

// Counters tallies the maintenance traffic of the store.
type Counters struct {
	// LightConnections is the number of HEAD checks issued.
	LightConnections int `json:"lightConnections"`
	// Downloads is the number of full page downloads.
	Downloads int `json:"downloads"`
	// UpdatesApplied counts pages found changed and re-wrapped.
	UpdatesApplied int `json:"updatesApplied"`
	// DeletionsApplied counts pages found removed from the site.
	DeletionsApplied int `json:"deletionsApplied"`
	// StaleServes counts checks answered from the stored copy without
	// confirmation because the origin's circuit breaker was open: lazy
	// maintenance degrades to trusting the materialization until the site
	// heals, instead of failing the query.
	StaleServes int `json:"staleServes,omitempty"`
}

// DefaultCheckWorkers bounds the concurrent URLCheck light connections a
// batched FollowPages issues, and the concurrent GETs of one level of the
// initial crawl.
const DefaultCheckWorkers = 8

// Store is the local materialization of a site's ADM representation. It is
// safe for concurrent use: FollowPages batches its URLCheck HEADs through a
// bounded worker pool, network calls run outside the store lock, and a
// per-URL singleflight keeps concurrent evaluation branches from issuing
// duplicate checks — so the measured light connections and downloads are
// identical whether a plan is evaluated sequentially or pipelined.
//
// The site is reached through a site.Transport with the zero policy (one
// attempt, no deadline), so every GET and HEAD is exactly one network
// operation and the §8 counters below stay what Algorithm 3 predicts.
type Store struct {
	ws  *adm.Scheme
	net *site.Transport

	mu       sync.Mutex
	workers  int                      // guarded by mu
	pages    map[string]*StoredPage   // guarded by mu
	status   map[string]Status        // guarded by mu
	missing  map[string]bool          // CheckMissing: deferred deletion queue; guarded by mu
	checking map[string]chan struct{} // per-URL in-flight checks (singleflight); guarded by mu
	counters Counters                 // guarded by mu
	// scoped is non-nil when only a subset of the page-schemes is
	// materialized (§8: "materialize views over portions of the Web");
	// pages of other schemes are fetched live on every use. Written once
	// during construction and immutable afterwards, so reads are lock-free.
	scoped map[string]bool
	// liveSrc, when set, serves the live fetches of non-materialized
	// schemes (e.g. from a shared cross-query page store) instead of
	// direct server GETs; those accesses are then accounted by the source,
	// not by the store's Downloads counter. guarded by mu
	liveSrc site.PageSource
}

// SetLiveSource routes the live fetches of non-materialized schemes through
// a shared page source (a pagecache.Session) instead of the store's own
// transport. Accesses through the source are counted by the source — the
// store's Downloads counter keeps covering only materialized-portion
// maintenance traffic.
func (s *Store) SetLiveSource(ps site.PageSource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.liveSrc = ps
}

// SetWorkers bounds the concurrent network checks of batched FollowPages
// calls (minimum 1).
func (s *Store) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.workers = n
}

// Materialized reports whether pages of the scheme are held locally.
func (s *Store) Materialized(scheme string) bool {
	return s.scoped == nil || s.scoped[scheme]
}

// Materialize navigates the whole site once (a breadth-first crawl from
// the entry points), wraps every page and stores it locally with its
// Last-Modified date — the initial materialization step of §8. The returned
// store is ready to answer queries.
func Materialize(server site.Server, ws *adm.Scheme) (*Store, error) {
	return MaterializeSchemes(server, ws, nil)
}

// MaterializeSchemes materializes only the given page-schemes (§8 speaks of
// materializing "views over portions of the Web"); pages of other schemes
// are downloaded live whenever a query touches them, with no maintenance
// cost. A nil or empty scheme list materializes the whole site. The initial
// crawl still traverses every page (links must be followed to reach the
// portion of interest), but only the selected schemes are stored. It
// fetches each breadth-first level with up to DefaultCheckWorkers GETs in
// flight; a page the site does not have, reached by a dangling link, is
// skipped, while a missing entry point fails the materialization.
func MaterializeSchemes(server site.Server, ws *adm.Scheme, schemes []string) (*Store, error) {
	const workers = DefaultCheckWorkers
	s := &Store{
		ws:       ws,
		net:      site.NewTransport(server, ws, site.RetryPolicy{}, nil, 0),
		workers:  workers,
		pages:    make(map[string]*StoredPage),
		status:   make(map[string]Status),
		missing:  make(map[string]bool),
		checking: make(map[string]chan struct{}),
	}
	if len(schemes) > 0 {
		s.scoped = make(map[string]bool, len(schemes))
		for _, name := range schemes {
			if ws.Page(name) == nil {
				return nil, fmt.Errorf("matview: unknown page-scheme %q", name)
			}
			s.scoped[name] = true
		}
	}
	err := ws.Walk(func(level []adm.PageRef) ([]nested.Tuple, error) {
		out := make([]nested.Tuple, len(level))
		err := site.Batch(len(level), workers, func(i int) error {
			p := level[i]
			var t nested.Tuple
			var err error
			if s.Materialized(p.Scheme) {
				t, err = s.download(p.URL, p.Scheme)
			} else {
				t, _, err = s.liveFetch(p.URL, p.Scheme)
			}
			// A page the site does not have is a dangling link: it is
			// not stored and has no links to follow.
			if err != nil && (!isNotFound(err) || ws.IsEntry(p)) {
				return fmt.Errorf("matview: initial materialization of %s: %w", p.URL, err)
			}
			out[i] = t
			return nil
		})
		return out, err
	})
	if err != nil {
		return nil, err
	}
	// The initial crawl is not an update pass.
	s.counters.UpdatesApplied = 0
	s.status = make(map[string]Status)
	return s, nil
}

// Len returns the number of materialized pages.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pages)
}

// Page returns the stored page for a URL.
func (s *Store) Page(url string) (*StoredPage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pages[url]
	return p, ok
}

// Counters returns a snapshot of the maintenance counters.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// ResetCounters zeroes the counters (between experiments).
func (s *Store) ResetCounters() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters = Counters{}
}

// BeginEvaluation resets all URL status flags to none, as Algorithm 3
// requires at the start of each query.
func (s *Store) BeginEvaluation() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.status = make(map[string]Status)
}

// StatusOf returns the current evaluation status of a URL.
func (s *Store) StatusOf(url string) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.status[url]
}

// MissingQueue returns the URLs queued in CheckMissing.
func (s *Store) MissingQueue() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.missing))
	for u := range s.missing {
		out = append(out, u)
	}
	return out
}

// outlinks returns the set of link values of a tuple under the scheme's
// link attributes, with their target schemes.
func (s *Store) outlinks(scheme string, t nested.Tuple) map[string]string {
	out := make(map[string]string)
	s.ws.Outlinks(scheme, t, func(url, target string) { out[url] = target })
	return out
}

// download fetches and wraps the page, updating the store and diffing
// outlinks against the previous version (Function 2 lines 6–10): links that
// appear are marked new, links that disappear are marked missing. The
// network GET and the wrap run outside the store lock; only the state
// updates (counters, link diff, page map) take it.
func (s *Store) download(url, scheme string) (nested.Tuple, error) {
	t, modified, err := s.get(url, scheme)
	if err != nil {
		return nested.Tuple{}, err
	}
	newLinks := s.outlinks(scheme, t)
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.pages[url]; ok {
		oldLinks := s.outlinks(scheme, prev.Tuple)
		for u := range newLinks {
			if _, had := oldLinks[u]; !had {
				s.status[u] = StatusNew
			}
		}
		for u := range oldLinks {
			if _, has := newLinks[u]; !has {
				// The link disappeared: the page may have been deleted.
				// It is excluded from this evaluation and queued for the
				// deferred off-line check (§8: CheckMissing).
				s.status[u] = StatusMissing
				s.missing[u] = true
			}
		}
		s.counters.UpdatesApplied++
	} else {
		// Every link of a brand-new page is new to the view.
		for u := range newLinks {
			if s.status[u] == StatusNone {
				if _, stored := s.pages[u]; !stored {
					s.status[u] = StatusNew
				}
			}
		}
	}
	s.pages[url] = &StoredPage{Scheme: scheme, Tuple: t, AccessDate: modified}
	return t, nil
}

// get downloads and wraps one page through the transport, counting the
// download.
func (s *Store) get(url, scheme string) (nested.Tuple, time.Time, error) {
	p, _, err := s.net.Get(background(), scheme, url)
	if err != nil {
		return nested.Tuple{}, time.Time{}, err
	}
	s.mu.Lock()
	s.counters.Downloads++
	s.mu.Unlock()
	return p.Tuple, p.LastModified, nil
}

// background is the context of the store's network traffic: its surface
// (nalg.Source, Refresh, RefreshURL) is context-free.
func background() context.Context {
	return context.Background() //lint:allow noctxbg context-free Source surface of the store
}

// liveFetch downloads and wraps a page without storing it, for schemes
// outside the materialized portion. With a live source installed the page
// comes from the shared store (and is accounted there).
func (s *Store) liveFetch(url, scheme string) (nested.Tuple, bool, error) {
	s.mu.Lock()
	src := s.liveSrc
	s.mu.Unlock()
	var t nested.Tuple
	var err error
	if src != nil {
		t, err = src.FetchCtx(background(), scheme, url)
	} else {
		t, _, err = s.get(url, scheme)
	}
	if err != nil {
		if isNotFound(err) {
			return nested.Tuple{}, false, nil
		}
		return nested.Tuple{}, false, err
	}
	return t, true, nil
}

// URLCheck is Function 2 of the paper: it verifies whether the page at U
// has been updated on the site, refreshing the local copy if so, and
// returns the current tuple. exists=false reports that the page is gone
// from the site (the local copy is dropped and the deletion counted).
// Concurrent checks of the same URL are serialized, so the light-connection
// count stays what a sequential evaluation would measure.
func (s *Store) URLCheck(url, scheme string) (t nested.Tuple, exists bool, err error) {
	s.acquireCheck(url)
	defer s.releaseCheck(url)
	s.mu.Lock()
	st := s.status[url]
	s.mu.Unlock()
	return s.runCheck(url, scheme, st)
}

// acquireCheck claims the per-URL check slot, waiting for any in-flight
// check of the same URL to finish first.
func (s *Store) acquireCheck(url string) {
	for {
		s.mu.Lock()
		ch, busy := s.checking[url]
		if !busy {
			s.checking[url] = make(chan struct{})
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		<-ch
	}
}

func (s *Store) releaseCheck(url string) {
	s.mu.Lock()
	ch := s.checking[url]
	delete(s.checking, url)
	s.mu.Unlock()
	close(ch)
}

// runCheck performs Function 2 for one URL given its status snapshot. All
// network traffic (HEAD, GET) happens outside the store lock so checks of
// different URLs proceed in parallel.
func (s *Store) runCheck(url, scheme string, st Status) (nested.Tuple, bool, error) {
	if st == StatusNew {
		// A link we have never materialized: download directly (Function 2
		// line 1–2); no light connection is needed.
		t, err := s.download(url, scheme)
		if err != nil {
			if isNotFound(err) {
				// Appeared and disappeared between checks.
				s.mu.Lock()
				s.counters.DeletionsApplied++
				s.status[url] = StatusChecked
				s.mu.Unlock()
				return nested.Tuple{}, false, nil
			}
			return nested.Tuple{}, false, err
		}
		s.mu.Lock()
		s.status[url] = StatusChecked
		s.mu.Unlock()
		return t, true, nil
	}
	s.mu.Lock()
	stored, have := s.pages[url]
	s.mu.Unlock()
	// Light connection: an error flag and the modification date (§8).
	meta, tr, err := s.net.Head(background(), url)
	// A breaker fast-fail never reached the network, so it is not a light
	// connection.
	s.mu.Lock()
	s.counters.LightConnections += tr.Heads
	s.mu.Unlock()
	if err != nil {
		if isNotFound(err) {
			s.mu.Lock()
			if have {
				delete(s.pages, url)
				s.counters.DeletionsApplied++
			}
			s.status[url] = StatusChecked
			s.mu.Unlock()
			return nested.Tuple{}, false, nil
		}
		if have && errors.Is(err, site.ErrBreakerOpen) {
			// The origin's breaker is open: skip confirmation and trust
			// the stored copy until the site heals. The URL stays
			// unchecked so the next evaluation retries the verification.
			s.mu.Lock()
			s.counters.StaleServes++
			s.mu.Unlock()
			return stored.Tuple, true, nil
		}
		return nested.Tuple{}, false, err
	}
	if !have || stored.AccessDate.Before(meta.LastModified) {
		t, err := s.download(url, scheme)
		if err != nil {
			if have && errors.Is(err, site.ErrBreakerOpen) {
				// Confirmed changed, but the refresh was fast-failed:
				// serve the stored (stale) copy rather than nothing.
				s.mu.Lock()
				s.counters.StaleServes++
				s.mu.Unlock()
				return stored.Tuple, true, nil
			}
			return nested.Tuple{}, false, err
		}
		s.mu.Lock()
		s.status[url] = StatusChecked
		s.mu.Unlock()
		return t, true, nil
	}
	s.mu.Lock()
	s.status[url] = StatusChecked
	s.mu.Unlock()
	return stored.Tuple, true, nil
}

// checkFollow is the per-URL step of a batched FollowPages: it applies the
// status shortcuts of Algorithm 3 and otherwise runs Function 2 once per
// URL per evaluation, no matter how many concurrent branches ask.
func (s *Store) checkFollow(url, scheme string) (nested.Tuple, bool, error) {
	for {
		s.mu.Lock()
		switch s.status[url] {
		case StatusMissing:
			// Deferred: checked periodically off-line, not during queries.
			s.missing[url] = true
			s.mu.Unlock()
			return nested.Tuple{}, false, nil
		case StatusChecked:
			p, ok := s.pages[url]
			s.mu.Unlock()
			if !ok {
				return nested.Tuple{}, false, nil
			}
			return p.Tuple, true, nil
		}
		ch, busy := s.checking[url]
		if busy {
			// Another branch is checking this URL right now: wait, then
			// re-read the status (it will be Checked).
			s.mu.Unlock()
			<-ch
			continue
		}
		s.checking[url] = make(chan struct{})
		st := s.status[url]
		s.mu.Unlock()

		t, exists, err := s.runCheck(url, scheme, st)
		s.releaseCheck(url)
		return t, exists, err
	}
}

func isNotFound(err error) bool { return errors.Is(err, site.ErrNotFound) }

// EntryPage implements nalg.Source for Algorithm 3: entry points are
// URL-checked before use (Algorithm 3 lines 3–5).
func (s *Store) EntryPage(scheme, url string) (nested.Tuple, error) {
	if !s.Materialized(scheme) {
		t, exists, err := s.liveFetch(url, scheme)
		if err != nil {
			return nested.Tuple{}, err
		}
		if !exists {
			return nested.Tuple{}, fmt.Errorf("matview: entry point %s no longer exists at %s", scheme, url)
		}
		return t, nil
	}
	t, exists, err := s.URLCheck(url, scheme)
	if err != nil {
		return nested.Tuple{}, err
	}
	if !exists {
		return nested.Tuple{}, fmt.Errorf("matview: entry point %s no longer exists at %s", scheme, url)
	}
	return t, nil
}

// FollowPages implements nalg.Source for Algorithm 3 (lines 6–12): each
// outgoing URL with status new or none is URL-checked; URLs flagged missing
// are queued in CheckMissing and excluded from the evaluation; deleted
// pages are dropped. The per-URL checks — one light connection each, plus a
// download when the page actually changed — are batched through a bounded
// worker pool, so a follow over many links overlaps its HEADs instead of
// paying one round trip after another. Results preserve input order.
func (s *Store) FollowPages(scheme string, urls []string) ([]nested.Tuple, error) {
	check := s.checkFollow
	if !s.Materialized(scheme) {
		check = s.liveFetch
	}
	s.mu.Lock()
	workers := s.workers
	s.mu.Unlock()
	results := make([]nested.Tuple, len(urls))
	exists := make([]bool, len(urls))
	err := site.Batch(len(urls), workers, func(i int) error {
		t, ok, err := check(urls[i], scheme)
		results[i], exists[i] = t, ok
		return err
	})
	if err != nil {
		return nil, err
	}
	var out []nested.Tuple
	for i, ok := range exists {
		if ok {
			out = append(out, results[i])
		}
	}
	return out, nil
}

// ReadyPages implements nalg.Source: Algorithm 3 URL-checks every page it
// follows, with a light connection, so no page is ready without a wait and
// every access goes through FollowPages.
func (s *Store) ReadyPages(string, []string, []nested.Tuple) (int, error) { return 0, nil }

// ProcessMissing performs the deferred off-line check of CheckMissing URLs
// (§8): each queued URL is probed, in sorted order and outside the store
// lock; pages that are indeed gone are removed from the view. A probe that
// fails for another reason stops the pass with that URL and the rest still
// queued. It returns the number of deletions applied.
func (s *Store) ProcessMissing() (int, error) {
	s.mu.Lock()
	queue := make([]string, 0, len(s.missing))
	for u := range s.missing {
		queue = append(queue, u)
	}
	s.mu.Unlock()
	sort.Strings(queue)
	deleted := 0
	for _, u := range queue {
		_, tr, err := s.net.Head(background(), u)
		s.mu.Lock()
		s.counters.LightConnections += tr.Heads
		if err != nil && !isNotFound(err) {
			s.mu.Unlock()
			return deleted, err
		}
		delete(s.missing, u)
		// A page still alive stays: some other page may still link to it.
		if _, ok := s.pages[u]; ok && isNotFound(err) {
			delete(s.pages, u)
			s.counters.DeletionsApplied++
			deleted++
		}
		s.mu.Unlock()
	}
	return deleted, nil
}

// RefreshURL applies one push event to the materialization: the page at url
// is re-verified immediately — one light connection, plus a download iff the
// site reports it changed — instead of waiting for the next query or full
// Refresh pass to touch it. scheme may be empty when the page is already
// stored (the stored scheme is reused); it is required for pages not yet
// materialized (Added events). It reports whether the local row changed
// (re-wrapped, added or deleted). When the origin's breaker is open the
// stale row is kept and the deferral surfaces as a site.ErrBreakerOpen
// wrapped error, so callers know the verification did not happen.
func (s *Store) RefreshURL(url, scheme string) (changed bool, err error) {
	s.mu.Lock()
	p, had := s.pages[url]
	if had {
		scheme = p.Scheme
	}
	s.mu.Unlock()
	if scheme == "" {
		return false, fmt.Errorf("matview: RefreshURL(%s): unknown page-scheme", url)
	}
	if !s.Materialized(scheme) {
		return false, nil // live-fetched on use; nothing stored to maintain
	}
	s.acquireCheck(url)
	defer s.releaseCheck(url)
	s.mu.Lock()
	before := s.counters
	st := s.status[url]
	s.mu.Unlock()
	_, _, cerr := s.runCheck(url, scheme, st)
	s.mu.Lock()
	after := s.counters
	_, has := s.pages[url]
	s.mu.Unlock()
	if cerr != nil {
		return false, cerr
	}
	if after.StaleServes > before.StaleServes {
		return false, fmt.Errorf("matview: refresh of %s deferred: %w", url, site.ErrBreakerOpen)
	}
	return had != has || after.UpdatesApplied > before.UpdatesApplied, nil
}

// RemoveURL drops the materialized row for url in response to a push
// Removed event — no probe needed, the feed already observed the deletion.
// It reports whether a row was removed (and counts the deletion if so).
func (s *Store) RemoveURL(url string) bool {
	s.acquireCheck(url)
	defer s.releaseCheck(url)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pages[url]; !ok {
		return false
	}
	delete(s.pages, url)
	delete(s.missing, url)
	s.counters.DeletionsApplied++
	return true
}

// Refresh re-checks every materialized page (the periodic full-view
// consistency pass the paper mentions at the end of §8). It returns how
// many pages were updated or deleted, plus the sorted URLs that could not
// be verified: an unreachable page (any network failure other than a clean
// 404) no longer aborts the pass — the stale local row is kept, so the view
// stays answerable, and the URL is reported for the next refresh to retry.
func (s *Store) Refresh() (updated, deleted int, stale []string, err error) {
	s.mu.Lock()
	urls := make([]string, 0, len(s.pages))
	schemes := make(map[string]string, len(s.pages))
	for u, p := range s.pages {
		urls = append(urls, u)
		schemes[u] = p.Scheme
	}
	s.mu.Unlock()
	sort.Strings(urls)
	s.BeginEvaluation()
	for _, u := range urls {
		s.mu.Lock()
		before := s.counters
		st := s.status[u]
		s.mu.Unlock()
		_, exists, cerr := s.runCheck(u, schemes[u], st)
		s.mu.Lock()
		after := s.counters
		s.mu.Unlock()
		if cerr != nil {
			// Source unreachable: keep serving the stale row rather than
			// failing the whole pass ("Maintaining Consistency of Data on
			// the Web": a view must stay usable when sources misbehave).
			stale = append(stale, u)
			continue
		}
		if !exists {
			deleted++
			continue
		}
		if after.UpdatesApplied > before.UpdatesApplied {
			updated++
		}
	}
	return updated, deleted, stale, nil
}
