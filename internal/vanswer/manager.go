package vanswer

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ulixes/internal/adm"
	"ulixes/internal/cq"
	"ulixes/internal/nalg"
	"ulixes/internal/nested"
	"ulixes/internal/pagecache"
	"ulixes/internal/site"
	"ulixes/internal/stats"
	"ulixes/internal/view"
)

// ManagerConfig tunes the manager.
type ManagerConfig struct {
	// Rewriter is the freshness/stale policy passed through to the
	// rewriter.
	Rewriter Config
	// Budget caps the summed extent bytes of the applied views; 0 means
	// unlimited. Apply keeps the given order (callers pass candidates best
	// first) and skips views that would exceed the budget.
	Budget int64
	// Store is the page store the site is crawled into and extents are
	// built from: a server's shared store, so the crawl warms the query
	// path too. Nil means a private §8 materialized view
	// (pagecache.NewView).
	Store *pagecache.Cache
}

// Manager owns the machinery behind view answering: a page store (the §8
// materialization, crawled on first use), the extents it derives from store
// snapshots — one per applied view definition — and the Rewriter serving
// queries from them. It executes the selector's materialize/drop decisions
// and the refresh path.
type Manager struct {
	server site.Server
	scheme *adm.Scheme
	views  *view.Registry
	cfg    ManagerConfig
	rw     *Rewriter

	// applyMu serializes Apply, Refresh and RefreshStore end to end, so the
	// served view set and the applied record always reflect one decision —
	// concurrent callers cannot interleave extent building with SetAll.
	applyMu sync.Mutex

	mu      sync.Mutex
	store   *pagecache.Cache // set by the first Apply's crawl; guarded by mu
	applied []Def            // current view definitions, in benefit order; guarded by mu
	// verifiedAt is the last instant every stored page is known to have been
	// verified against the live site: the initial materialization crawl, then
	// each fully successful Refresh. Extents are stamped with it, so merely
	// re-applying a view set does NOT renew the freshness horizon. guarded by mu
	verifiedAt time.Time
}

// NewManager creates a manager with no materialized views: every query
// misses until Apply installs some.
func NewManager(server site.Server, views *view.Registry, cfg ManagerConfig) *Manager {
	return &Manager{
		server: server,
		scheme: views.Scheme,
		views:  views,
		cfg:    cfg,
		rw:     NewRewriter(views, cfg.Rewriter),
	}
}

// TryAnswer implements the engine's view-answering hook.
func (m *Manager) TryAnswer(q *cq.Query) (*nested.Relation, bool, error) {
	return m.rw.TryAnswer(q)
}

// Counters returns the rewriter's decision counters.
func (m *Manager) Counters() Counters { return m.rw.Counters() }

// Bytes returns the summed storage footprint of the current extents.
func (m *Manager) Bytes() int64 { return m.rw.Bytes() }

// Applied returns the currently applied view definitions.
func (m *Manager) Applied() []Def {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Def(nil), m.applied...)
}

// Store exposes the backing page store (nil before the first Apply), for
// maintenance counters and tests.
func (m *Manager) Store() *pagecache.Cache {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.store
}

func (m *Manager) now() time.Time {
	if m.cfg.Rewriter.Clock != nil {
		return m.cfg.Rewriter.Clock()
	}
	return time.Now()
}

// ensureStore crawls the site into the backing store on first use. If the
// crawl took any page from the store without asking the site (a hit or a
// stale serve), every stored page is then verified (Refresh), so none older
// than the crawl's start is stamped as verified at it; a page that pass
// cannot verify leaves the store with no verification time until a clean
// Refresh. Other queries on a shared store count too: at most a needless
// pass.
func (m *Manager) ensureStore() (*pagecache.Cache, error) {
	if st := m.Store(); st != nil {
		return st, nil
	}
	st := m.cfg.Store
	if st == nil {
		st = pagecache.NewView(m.server, m.scheme, pagecache.Config{})
	}
	at := m.now()
	before := st.Stats()
	if _, _, err := stats.CrawlWithSizes(st, m.scheme); err != nil {
		return nil, fmt.Errorf("vanswer: materialization crawl: %w", err)
	}
	if after := st.Stats(); after.Hits > before.Hits || after.Stale > before.Stale {
		if _, _, stale := st.Refresh(context.Background()); len(stale) > 0 {
			at = time.Time{}
		}
	}
	m.mu.Lock()
	if m.store == nil {
		m.store = st
		m.verifiedAt = at
	}
	st = m.store
	m.mu.Unlock()
	return st, nil
}

// normalize sorts a definition's bindings (canonical form) and validates it
// against the registry.
func (m *Manager) normalize(d Def) (Def, error) {
	rel := m.views.Relation(d.Relation)
	if rel == nil {
		return Def{}, fmt.Errorf("vanswer: unknown external relation %q", d.Relation)
	}
	attrs := make(map[string]bool, len(rel.Attrs))
	for _, a := range rel.Attrs {
		attrs[a] = true
	}
	out := Def{Relation: d.Relation, Bindings: append([]Binding(nil), d.Bindings...)}
	for _, b := range out.Bindings {
		if !attrs[b.Attr] {
			return Def{}, fmt.Errorf("vanswer: relation %q has no attribute %q", d.Relation, b.Attr)
		}
	}
	sort.Slice(out.Bindings, func(i, j int) bool { return out.Bindings[i].Attr < out.Bindings[j].Attr })
	return out, nil
}

// buildExtent computes one view's extent from a store snapshot: the
// relation's first default navigation evaluated purely locally, projected
// and renamed to the external attributes, then filtered by the binding
// pattern. No network is touched; a pagecache.ErrNotStored error means
// the snapshot does not cover the navigation. refreshedAt is the
// snapshot's verification bound, NOT the build time: rebuilding an extent
// from unrevalidated pages must not renew the freshness horizon.
func (m *Manager) buildExtent(sn *pagecache.Snapshot, d Def, refreshedAt time.Time) (*View, error) {
	rel := m.views.Relation(d.Relation)
	nav := rel.Navs[0]
	ext, err := nalg.EvalWithOptions(nav.Expr, m.scheme, sn, nalg.EvalOptions{Pipelined: true})
	if err != nil {
		return nil, fmt.Errorf("vanswer: extent of %s: %w", d.Key(), err)
	}
	// The extent's columns are the external attributes: the output rule of
	// "SELECT <every attribute> FROM <relation>" over the navigation.
	sel := make([]cq.OutCol, len(rel.Attrs))
	for i, a := range rel.Attrs {
		sel[i] = cq.OutCol{Attr: cq.AttrUse{Atom: d.Relation, Attr: a}}
	}
	cols, ren, err := cq.Output(sel, func(u cq.AttrUse) (string, error) { return nav.ColMap[u.Attr], nil })
	if err == nil {
		ext, err = projectOut(ext, cols, ren)
	}
	if err != nil {
		return nil, fmt.Errorf("vanswer: extent of %s: %w", d.Key(), err)
	}
	for _, b := range d.Bindings {
		ext, err = ext.Select(nested.Eq(b.Attr, b.Val))
		if err != nil {
			return nil, fmt.Errorf("vanswer: extent of %s: %w", d.Key(), err)
		}
	}
	var bytes int64
	for _, t := range ext.Tuples() {
		bytes += int64(len(t.Key()))
	}
	return &View{Def: d, Rel: ext, RefreshedAt: refreshedAt, Bytes: bytes}, nil
}

// Apply installs a new desired view set, in the given (best-first) order:
// the site is crawled into the backing store if this is the first call,
// each definition's extent is built from one consistent snapshot, and
// definitions whose ACTUAL extent bytes would exceed the budget are
// skipped — the budget is enforced on measured bytes, not estimates — as
// are definitions whose extent reaches a page the store does not hold (its
// byte bound evicted it).
// Previously applied views not in the new set are dropped. It returns the
// definitions actually materialized.
//
// Extents are stamped with the store's last verification time, not the
// call time: Apply rebuilds from whatever the store holds, so only a
// Refresh (or the initial crawl) renews the freshness horizon — re-applying
// a never-revalidated store keeps aging toward the horizon.
func (m *Manager) Apply(defs []Def) ([]Def, error) {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	return m.applyLocked(defs)
}

// applyLocked is Apply's body; callers hold applyMu.
func (m *Manager) applyLocked(defs []Def) ([]Def, error) {
	st, err := m.ensureStore()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	refreshedAt := m.verifiedAt
	m.mu.Unlock()
	sn := st.Snapshot()
	var views []*View
	var kept []Def
	var total int64
	for _, d := range defs {
		nd, err := m.normalize(d)
		if err != nil {
			return nil, err
		}
		v, err := m.buildExtent(sn, nd, refreshedAt)
		if errors.Is(err, pagecache.ErrNotStored) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if m.cfg.Budget > 0 && total+v.Bytes > m.cfg.Budget {
			continue
		}
		total += v.Bytes
		views = append(views, v)
		kept = append(kept, nd)
	}
	m.rw.SetAll(views)
	m.mu.Lock()
	m.applied = kept
	m.mu.Unlock()
	return kept, nil
}

// ApplyChange applies one push-feed event to the materialization: the
// touched page alone is re-verified (or its row dropped, for removals), and
// when the local row actually changed the applied extents are rebuilt from
// the new snapshot. A removal always rebuilds: on a shared store the page
// store's own invalidation may have dropped the row already. The freshness horizon is deliberately NOT renewed — one
// page being fresh says nothing about the rest; only a clean full sweep
// (AdvanceHorizon) or a full Refresh moves it. A nil store (nothing
// materialized yet) is a no-op. It reports whether the materialization
// changed.
func (m *Manager) ApplyChange(url, scheme string, removed bool) (bool, error) {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	m.mu.Lock()
	st := m.store
	defs := append([]Def(nil), m.applied...)
	m.mu.Unlock()
	if st == nil {
		return false, nil
	}
	changed := true
	var err error
	if removed {
		st.RemoveURL(url)
	} else {
		changed, err = st.RefreshURL(context.Background(), url, scheme)
	}
	if err != nil || !changed {
		return changed, err
	}
	_, aerr := m.applyLocked(defs)
	return true, aerr
}

// AdvanceHorizon records that every stored page was verified against the
// live site no earlier than at — the push feed's clean-sweep (or hook-mode
// verified-bound) signal. The freshness horizon renews and every current
// extent is restamped WITHOUT rebuilding: targeted ApplyChange calls already
// kept the rows current, so renewal is a metadata update, not a crawl.
// Instants not after the current bound are still forwarded to the rewriter
// (restamping is monotonic per view) but cannot move the bound backwards.
func (m *Manager) AdvanceHorizon(at time.Time) {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	m.mu.Lock()
	if at.After(m.verifiedAt) {
		m.verifiedAt = at
	}
	m.mu.Unlock()
	m.rw.AdvanceRefreshed(at)
}

// RefreshStore runs the store's full consistency pass (§8's periodic
// refresh: one light connection per page, downloads only for changed pages)
// WITHOUT rebuilding extents — callers about to Apply a new view set use it
// to revalidate first, so the extents they build count as fresh. The
// verification clock advances only when every page was actually verified
// (no stale leftovers); a partial pass keeps the old bound, since
// the unverified pages are only as fresh as the previous one. A nil store
// (nothing materialized yet) is a no-op.
func (m *Manager) RefreshStore() (updated, deleted int, stale []string) {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	return m.refreshStoreLocked()
}

// refreshStoreLocked is RefreshStore's body; callers hold applyMu.
func (m *Manager) refreshStoreLocked() (updated, deleted int, stale []string) {
	st := m.Store()
	if st == nil {
		return 0, 0, nil // nothing materialized yet
	}
	at := m.now() // every page is verified no earlier than the pass's start
	updated, deleted, stale = st.Refresh(context.Background())
	if len(stale) > 0 {
		return updated, deleted, stale
	}
	m.mu.Lock()
	m.verifiedAt = at
	m.mu.Unlock()
	return updated, deleted, stale
}

// Refresh revalidates the store (RefreshStore) and rebuilds every applied
// extent from the refreshed snapshot, renewing the freshness horizon when
// the pass verified everything. It returns the store's refresh report.
func (m *Manager) Refresh() (updated, deleted int, stale []string, err error) {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	m.mu.Lock()
	st := m.store
	defs := append([]Def(nil), m.applied...)
	m.mu.Unlock()
	if st == nil {
		return 0, 0, nil, nil // nothing materialized yet
	}
	updated, deleted, stale = m.refreshStoreLocked()
	_, err = m.applyLocked(defs)
	return updated, deleted, stale, err
}
