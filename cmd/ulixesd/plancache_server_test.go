package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"ulixes"
)

// comparable strips the timing fields (the only non-deterministic parts of
// a response: wall and plan times, and the store's peak of simultaneous
// accesses, which depends on goroutine scheduling) so two runs of the same
// workload can be compared byte for byte — answer rows, chosen plan,
// estimated cost and every access counter included.
func comparable(t *testing.T, r queryResponse) string {
	t.Helper()
	r.Stats.WallMs = 0
	r.Stats.PlanMs = 0
	r.Stats.PeakInFlight = 0
	r.Stats.PlanCached = false
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPlanCacheWorkload replays a repeated-shape workload against two
// servers over identical sites — one with the prepared-plan cache, one
// without. Every response must be byte-identical (modulo timing), ≥90% of
// the cached server's queries must be plan-cache hits, and the hit/miss
// counters must surface on /stats.
func TestPlanCacheWorkload(t *testing.T) {
	cachedSrv := newTestServer(t, 4, 0, nil)
	cachedSrv.sys.EnablePlanCache(ulixes.PlanCacheConfig{})
	plainSrv := newTestServer(t, 4, 0, nil)

	cachedTS := httptest.NewServer(cachedSrv.handler())
	defer cachedTS.Close()
	plainTS := httptest.NewServer(plainSrv.handler())
	defer plainTS.Close()

	ranks := []string{"Full", "Associate", "Assistant"}
	var queries []string
	for i := 0; i < 15; i++ {
		rank := ranks[i%len(ranks)]
		queries = append(queries,
			fmt.Sprintf("SELECT p.PName, p.Rank FROM Professor p WHERE p.Rank = '%s'", rank),
			fmt.Sprintf("SELECT p.PName, p.Email FROM Professor p WHERE p.Rank = '%s'", rank),
		)
	}
	for i, q := range queries {
		resp, a := doQuery(t, cachedTS, q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d (cached): status %d", i, resp.StatusCode)
		}
		resp, b := doQuery(t, plainTS, q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d (plain): status %d", i, resp.StatusCode)
		}
		if got, want := comparable(t, a), comparable(t, b); got != want {
			t.Fatalf("query %d: responses differ\ncached: %s\nplain:  %s", i, got, want)
		}
		if wantCached := i >= 2; a.Stats.PlanCached != wantCached {
			t.Errorf("query %d: planCached = %v, want %v", i, a.Stats.PlanCached, wantCached)
		}
		if b.Stats.PlanCached {
			t.Errorf("query %d: cache-off server reported planCached", i)
		}
	}

	resp, err := cachedTS.Client().Get(cachedTS.URL + "/stats") //lint:allow fetchgate client of our own query API, not a page fetch
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st storeStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	total := st.PlanHits + st.PlanMisses
	if total != uint64(len(queries)) {
		t.Fatalf("plan lookups = %d, want %d", total, len(queries))
	}
	if st.PlanMisses != 2 {
		t.Errorf("plan misses = %d, want 2 (one per shape)", st.PlanMisses)
	}
	if rate := float64(st.PlanHits) / float64(total); rate < 0.9 {
		t.Errorf("plan-cache hit rate %.2f < 0.90", rate)
	}
	if st.PlanEntries != 2 {
		t.Errorf("plan entries = %d, want 2", st.PlanEntries)
	}
}
