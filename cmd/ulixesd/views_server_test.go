package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// TestViewAnsweringEndToEnd drives the full -views-auto loop over HTTP: the
// early queries run live, the selector kicks in at the configured multiple,
// and later identical queries are answered from the materialized view with
// byte-identical rows, zero page accesses, and the new /stats counters.
func TestViewAnsweringEndToEnd(t *testing.T) {
	// -ttl 0 revalidates every re-access, so live queries keep costing.
	srv := newTestServer(t, "-ttl", "0", "-views-auto", "-views-every", "3")
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	const q = "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"
	var first, last queryResponse
	for i := 0; i < 6; i++ {
		code, out := doQuery(t, ts, q)
		if code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
		if i == 0 {
			first = out
		}
		last = out
		if i == 2 {
			// The 3rd query triggers selection, which now runs in the
			// background (the triggering request's maybeReselect registers
			// it before responding); wait for it so later queries
			// deterministically see the materialized view.
			srv.selectWG.Wait()
		}
	}
	if first.Stats.FromView {
		t.Error("first query claims fromView before anything was materialized")
	}
	if !last.Stats.FromView {
		t.Fatal("last query still live; selector never materialized the view")
	}
	if last.Stats.Pages != 0 || last.Stats.Accesses != 0 {
		t.Errorf("view answer cost pages=%d accesses=%d, want 0/0", last.Stats.Pages, last.Stats.Accesses)
	}
	if last.Plan != "(answered from materialized views)" || last.EstimatedCost != 0 {
		t.Errorf("view answer plan %q cost %v", last.Plan, last.EstimatedCost)
	}
	if !reflect.DeepEqual(first.Columns, last.Columns) || !reflect.DeepEqual(first.Rows, last.Rows) {
		t.Errorf("view answer differs from live answer:\nlive %v %v\nview %v %v",
			first.Columns, first.Rows, last.Columns, last.Rows)
	}

	var st storeStats
	mustCall(t, ts, "GET", "/stats", "", &st)
	if st.ViewHits == 0 || st.ViewMisses == 0 {
		t.Errorf("viewHits=%d viewMisses=%d, want both > 0", st.ViewHits, st.ViewMisses)
	}
	if st.ViewBytes <= 0 {
		t.Errorf("viewBytes = %d, want > 0", st.ViewBytes)
	}
	if st.SelectorRuns == 0 {
		t.Error("selectorRuns = 0, want at least one decision")
	}
	if st.Matview == nil || st.Matview.Downloads == 0 {
		t.Errorf("matview counters %+v, want the materialization crawl visible", st.Matview)
	}
}

// TestViewsShareTheQueryStore: under -views-auto there is one page store.
// The view-selection crawl fills the server's own store, so after it a
// query of a shape no view answers is served from the store with no
// download.
func TestViewsShareTheQueryStore(t *testing.T) {
	srv := newTestServer(t, "-views-auto", "-views-every", "3")
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if code, _ := doQuery(t, ts, "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	srv.selectWG.Wait()
	code, out := doQuery(t, ts, "SELECT c.CName FROM Course c WHERE c.Session = 'Fall'")
	if code != http.StatusOK {
		t.Fatalf("course query: status %d", code)
	}
	if out.Stats.FromView || out.Stats.Accesses == 0 {
		t.Fatalf("course query: fromView %v, %d accesses; want a live plan", out.Stats.FromView, out.Stats.Accesses)
	}
	if out.Stats.Pages != 0 || out.Stats.CacheHits != out.Stats.Accesses {
		t.Errorf("course query after the crawl: %d downloads, %d hits of %d accesses; want every access a hit",
			out.Stats.Pages, out.Stats.CacheHits, out.Stats.Accesses)
	}
	var st storeStats
	mustCall(t, ts, "GET", "/stats", "", &st)
	if st.Matview == nil || st.Matview.Downloads != st.Fetches {
		t.Errorf("matview ledger %+v, store fetches %d: want one store", st.Matview, st.Fetches)
	}
}
