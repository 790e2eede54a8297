package matview

import (
	"errors"
	"testing"
	"time"

	"ulixes/internal/faults"
	"ulixes/internal/guard"
	"ulixes/internal/sitegen"
)

// TestSnapshotCopiesStoreState pins the iteration/lookup surface the
// view-answering layer consumes: page counts, sorted URL and scheme listings,
// per-scheme slices, the freshness bound and the byte footprint.
func TestSnapshotCopiesStoreState(t *testing.T) {
	u, _, store, _ := fixture(t)
	sn := store.Snapshot()
	if sn.Len() != store.Len() || sn.Len() != u.Instance.TotalPages() {
		t.Fatalf("snapshot holds %d pages, store %d, site %d", sn.Len(), store.Len(), u.Instance.TotalPages())
	}
	urls := sn.URLs()
	if len(urls) != sn.Len() {
		t.Fatalf("URLs lists %d entries, want %d", len(urls), sn.Len())
	}
	for i := 1; i < len(urls); i++ {
		if urls[i-1] >= urls[i] {
			t.Fatalf("URLs not sorted: %q before %q", urls[i-1], urls[i])
		}
	}
	total := 0
	for _, scheme := range sn.Schemes() {
		pages := sn.PagesOf(scheme)
		if len(pages) == 0 {
			t.Errorf("scheme %q listed but has no pages", scheme)
		}
		for _, p := range pages {
			if p.Scheme != scheme {
				t.Errorf("PagesOf(%q) returned a %q page", scheme, p.Scheme)
			}
		}
		total += len(pages)
	}
	if total != sn.Len() {
		t.Errorf("per-scheme pages sum to %d, want %d", total, sn.Len())
	}
	if _, ok := sn.Page(sitegen.UnivProfListURL); !ok {
		t.Error("prof list page missing from snapshot")
	}
	if _, ok := sn.OldestAccess(); !ok {
		t.Error("OldestAccess not found on a populated snapshot")
	}
	if sn.Bytes() <= 0 {
		t.Errorf("Bytes() = %d, want > 0", sn.Bytes())
	}
}

// TestSnapshotSourceServesLocally: the snapshot source answers navigations
// from stored tuples without touching the site, and errors (rather than
// silently skipping) on anything not materialized — the soundness hook the
// rewriter's live fallback depends on.
func TestSnapshotSourceServesLocally(t *testing.T) {
	_, ms, store, _ := fixture(t)
	stored, ok := store.Page(sitegen.UnivProfListURL)
	if !ok {
		t.Fatal("prof list not materialized")
	}
	gets := ms.Counters().Gets()
	src := store.Snapshot().Source()

	tup, err := src.EntryPage(sitegen.ProfListPage, sitegen.UnivProfListURL)
	if err != nil {
		t.Fatal(err)
	}
	if !tup.Equal(stored.Tuple) {
		t.Error("EntryPage returned a different tuple than the stored copy")
	}
	batch, err := src.FollowPages(sitegen.ProfListPage, []string{sitegen.UnivProfListURL})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 || !batch[0].Equal(stored.Tuple) {
		t.Error("FollowPages returned a different tuple than the stored copy")
	}
	if got := ms.Counters().Gets(); got != gets {
		t.Errorf("snapshot reads cost %d GETs, want 0", got-gets)
	}

	// A URL the store does not hold is an explicit error.
	var notMat *ErrNotMaterialized
	if _, err := src.EntryPage(sitegen.ProfListPage, "http://univ.example.edu/nowhere"); !errors.As(err, &notMat) {
		t.Errorf("missing URL: err = %v, want *ErrNotMaterialized", err)
	}
	if _, err := src.FollowPages(sitegen.ProfListPage, []string{"http://univ.example.edu/nowhere"}); !errors.As(err, &notMat) {
		t.Errorf("missing URL in batch: err = %v, want *ErrNotMaterialized", err)
	}
	// So is a stored URL under the wrong page-scheme.
	if _, err := src.EntryPage("WrongScheme", sitegen.UnivProfListURL); !errors.As(err, &notMat) {
		t.Errorf("scheme mismatch: err = %v, want *ErrNotMaterialized", err)
	}
}

// TestRefreshReportsStaleRowsWhenOriginUnreachable: a refresh pass against a
// hard-down origin (no breaker involved) keeps every row and reports it in
// the 4-value stale list instead of failing the pass; a later pass against
// the healed origin comes back clean.
func TestRefreshReportsStaleRowsWhenOriginUnreachable(t *testing.T) {
	u, ms, _, _ := fixtureParts(t)
	chaos := faults.New(ms, 11)
	store, err := Materialize(chaos, u.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	chaos.SetRules(faults.Rule{Kind: faults.Transient, Rate: 1})
	updated, deleted, stale, err := store.Refresh()
	if err != nil {
		t.Fatalf("refresh must not fail outright: %v", err)
	}
	if updated != 0 || deleted != 0 {
		t.Errorf("updated=%d deleted=%d, want 0/0", updated, deleted)
	}
	if len(stale) != u.Instance.TotalPages() {
		t.Errorf("%d stale rows, want every page (%d)", len(stale), u.Instance.TotalPages())
	}
	if store.Len() != u.Instance.TotalPages() {
		t.Errorf("store dropped to %d pages; stale rows must be kept", store.Len())
	}
	chaos.SetRules()
	if _, _, stale, err = store.Refresh(); err != nil || len(stale) != 0 {
		t.Errorf("healed refresh: stale=%v err=%v, want clean", stale, err)
	}
}

// TestRefreshStaleServesUnderTrippedBreaker: once the site-health guard's
// breaker is open, a refresh pass is answered entirely from the stored
// copies — counted as StaleServes, with no stale rows reported and no new
// network traffic — rather than burning a timeout per page against a host
// already known to be down.
func TestRefreshStaleServesUnderTrippedBreaker(t *testing.T) {
	u, ms, _, _ := fixtureParts(t)
	clock := func() time.Time { return time.Date(2000, time.January, 1, 0, 0, 0, 0, time.UTC) }
	chaos := faults.New(ms, 7)
	g := guard.New(chaos, guard.Config{
		Clock:          clock,
		ErrorThreshold: 0.6,
		OpenFor:        30 * time.Second,
	})
	store, err := Materialize(g, u.Scheme)
	if err != nil {
		t.Fatal(err)
	}

	// Two real failures trip the breaker (see TestStaleServeWhenBreakerOpen
	// for the EWMA arithmetic).
	chaos.SetRules(faults.Rule{Kind: faults.Transient, Rate: 1})
	store.BeginEvaluation()
	for i := 0; i < 2; i++ {
		if _, _, err := store.URLCheck(sitegen.UnivProfListURL, sitegen.ProfListPage); err == nil {
			t.Fatalf("check %d: expected a transient failure", i)
		}
	}
	if got := g.StateOf(guard.HostOf(sitegen.UnivProfListURL)); got != guard.Open {
		t.Fatalf("breaker state %v, want Open", got)
	}

	store.ResetCounters()
	updated, deleted, stale, err := store.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if updated != 0 || deleted != 0 || len(stale) != 0 {
		t.Errorf("updated=%d deleted=%d stale=%v, want an all-stale-served pass", updated, deleted, stale)
	}
	c := store.Counters()
	if c.StaleServes != u.Instance.TotalPages() {
		t.Errorf("StaleServes = %d, want one per page (%d)", c.StaleServes, u.Instance.TotalPages())
	}
	if c.LightConnections != 0 || c.Downloads != 0 {
		t.Errorf("counters %+v, want no network traffic under an open breaker", c)
	}
	if store.Len() != u.Instance.TotalPages() {
		t.Errorf("store dropped to %d pages", store.Len())
	}
}
