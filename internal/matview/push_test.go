package matview

import (
	"errors"
	"testing"
	"time"

	"ulixes/internal/adm"
	"ulixes/internal/faults"
	"ulixes/internal/guard"
	"ulixes/internal/nested"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
)

// TestRefreshURLRewrapsOnlyChangedPage pins the targeted-refresh cost model:
// a push event for one changed page costs exactly one light connection plus
// one download, and touches no other row.
func TestRefreshURLRewrapsOnlyChangedPage(t *testing.T) {
	u, ms, store, _ := fixture(t)
	url := profPageURL(t, u, 0)
	otherURL := profPageURL(t, u, 1)
	otherBefore, _ := store.Page(otherURL)

	tup, _ := u.Instance.Page(sitegen.ProfPage, url)
	if err := ms.UpdatePage(sitegen.ProfPage, tup.With("Rank", nested.TextValue("Emeritus"))); err != nil {
		t.Fatal(err)
	}
	store.ResetCounters()

	changed, err := store.RefreshURL(url, "")
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("RefreshURL reported no change for a mutated page")
	}
	c := store.Counters()
	if c.LightConnections != 1 || c.Downloads != 1 || c.UpdatesApplied != 1 || c.DeletionsApplied != 0 {
		t.Fatalf("counters %+v, want exactly one check and one download", c)
	}
	p, ok := store.Page(url)
	if !ok {
		t.Fatal("refreshed page missing from store")
	}
	if got := p.Tuple.MustGet("Rank").String(); got != "Emeritus" {
		t.Fatalf("stored rank = %q, want the pushed update", got)
	}
	if otherAfter, _ := store.Page(otherURL); otherAfter != otherBefore {
		t.Fatal("an untouched page's row was replaced")
	}

	// Refreshing an unchanged page verifies (one light connection) without
	// downloading and reports no change.
	changed, err = store.RefreshURL(url, "")
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("RefreshURL reported a change for an unchanged page")
	}
	c = store.Counters()
	if c.LightConnections != 2 || c.Downloads != 1 {
		t.Fatalf("counters after no-op refresh %+v", c)
	}
}

// TestRefreshURLMaterializesNewPage: an Added event for a URL the store has
// never seen downloads and stores it (scheme supplied by the feed).
func TestRefreshURLMaterializesNewPage(t *testing.T) {
	_, ms, store, _ := fixture(t)
	url := "http://univ.example.edu/prof/999.html"
	extra := nested.T(
		adm.URLAttr, nested.LinkValue(url),
		"Name", nested.TextValue("Prof. 999"),
		"Rank", nested.TextValue("Full"),
		"Email", nested.TextValue("p999@univ.example.edu"),
		"DName", nested.TextValue(sitegen.DeptName(0)),
		"ToDept", nested.LinkValue("http://univ.example.edu/dept/0.html"),
		"CourseList", nested.ListValue{},
	)
	if err := ms.UpdatePage(sitegen.ProfPage, extra); err != nil {
		t.Fatal(err)
	}
	store.ResetCounters()

	changed, err := store.RefreshURL(url, sitegen.ProfPage)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("RefreshURL reported no change for a brand-new page")
	}
	if _, ok := store.Page(url); !ok {
		t.Fatal("new page not materialized")
	}
	// Without a stored row and without a feed-supplied scheme the refresh
	// cannot proceed.
	if _, err := store.RefreshURL("http://univ.example/nowhere", ""); err == nil {
		t.Fatal("RefreshURL of an unknown URL without a scheme should fail")
	}
}

// TestRemoveURLDropsRow: a Removed event deletes the materialized row
// directly — no probe, the feed already observed the deletion.
func TestRemoveURLDropsRow(t *testing.T) {
	u, ms, store, _ := fixture(t)
	url := profPageURL(t, u, 2)
	heads := ms.Counters().Heads()
	if !store.RemoveURL(url) {
		t.Fatal("RemoveURL found nothing")
	}
	if _, ok := store.Page(url); ok {
		t.Fatal("row still present after RemoveURL")
	}
	if store.RemoveURL(url) {
		t.Fatal("second RemoveURL should report false")
	}
	if ms.Counters().Heads() != heads {
		t.Fatal("RemoveURL must not touch the network")
	}
	if c := store.Counters(); c.DeletionsApplied != 1 {
		t.Fatalf("counters %+v, want one deletion", c)
	}
}

// TestRefreshURLBreakerKeepsStaleRow drives the targeted refresh into the
// PR-8 stale-serve path: with the origin's breaker open the row is kept and
// the deferral surfaces as site.ErrBreakerOpen, so feed wiring knows the
// verification did not happen.
func TestRefreshURLBreakerKeepsStaleRow(t *testing.T) {
	u, ms, _, _ := fixtureParts(t)
	clock := site.LogicalClock()
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
	url := profPageURL(t, u, 0)
	before, _ := store.Page(url)
	store.ResetCounters()

	// Two real failures trip the breaker (same EWMA arithmetic as the
	// URLCheck stale-serve test).
	chaos.SetRules(faults.Rule{Kind: faults.Transient, Rate: 1})
	for i := 0; i < 2; i++ {
		if _, err := store.RefreshURL(url, ""); err == nil {
			t.Fatalf("refresh %d: expected a transient failure", i)
		}
	}
	_, err = store.RefreshURL(url, "")
	if !errors.Is(err, site.ErrBreakerOpen) {
		t.Fatalf("breaker-open refresh error = %v, want ErrBreakerOpen", err)
	}
	p, ok := store.Page(url)
	if !ok || !p.Tuple.Equal(before.Tuple) {
		t.Fatal("stale row must survive a deferred refresh")
	}
	if c := store.Counters(); c.StaleServes != 1 || c.Downloads != 0 {
		t.Fatalf("counters %+v, want one stale serve and no downloads", c)
	}
}
