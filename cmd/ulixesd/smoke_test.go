package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"ulixes/internal/standing"
)

// smokeQuery touches several page-schemes through an index page, so the
// workload exercises follow-chains, not just an entry page.
const smokeQuery = "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"

// TestSmoke assembles the server from each flag list, with the binary's
// default site, and drives it over HTTP: runSmoke always, smokeFeed when
// the list turns the push feed on. Once the server is drained and stopped,
// no goroutine it started may be left running.
func TestSmoke(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"defaults", nil},
		{"feed-hook", []string{"-feed", "hook"}},
		{"feed-poll", []string{"-feed", "poll", "-feed-interval", "50ms"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Registered first, so it runs after start's drain and stop.
			t.Cleanup(leakCheck(t))
			cfg, err := parseFlags(tc.args)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(start(t, cfg).handler())
			defer ts.Close()

			runSmoke(t, ts)
			if cfg.feed != "off" {
				smokeFeed(t, ts)
			}
		})
	}
}

// runSmoke runs a deterministic concurrent workload against the HTTP API:
// one cold query to learn the plan's distinct-access count D, then three
// concurrent warm queries. Every response must be 200 with exactly D
// accesses; the warm ones must cost the network zero page downloads (the
// shared store resolves every access as a hit or a revalidation) and come
// from the plan cache; and the store's global fetch count must equal D.
func runSmoke(t *testing.T, ts *httptest.Server) {
	t.Helper()
	mustCall(t, ts, "GET", "/healthz", "", nil)

	// Cold query: every access is a physical GET, so Pages == D.
	path := "/query?q=" + url.QueryEscape(smokeQuery)
	var cold queryResponse
	mustCall(t, ts, "GET", path, "", &cold)
	d := cold.Stats.Accesses
	if d == 0 {
		t.Fatal("cold query touched no pages; bad workload")
	}
	if cold.Stats.Pages != d || cold.Stats.CacheHits != 0 {
		t.Fatalf("cold query: %d GETs and %d hits over %d accesses, want all GETs",
			cold.Stats.Pages, cold.Stats.CacheHits, d)
	}
	if len(cold.Rows) == 0 {
		t.Fatal("cold query returned no rows")
	}
	if cold.Stats.PlanCached {
		t.Fatal("cold query reported a plan-cache hit")
	}

	// Three concurrent warm queries: same answer, same D, zero GETs.
	var wg sync.WaitGroup
	warm := make([]queryResponse, 3)
	errs := make([]error, 3)
	for i := range warm {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if code, err := call(ts, "GET", path, "", &warm[i]); err != nil || code != http.StatusOK {
				errs[i] = fmt.Errorf("status %d, %v", code, err)
			}
		}(i)
	}
	wg.Wait()
	for i, r := range warm {
		if errs[i] != nil {
			t.Fatalf("warm query %d: %v", i, errs[i])
		}
		if got := r.Stats.Accesses; got != d {
			t.Fatalf("warm query %d: %d accesses, want %d (invariant cost)", i, got, d)
		}
		if r.Stats.Pages != 0 {
			t.Fatalf("warm query %d: %d page downloads, want 0 (shared store)", i, r.Stats.Pages)
		}
		if got := r.Stats.CacheHits + r.Stats.Revalidations; got != d {
			t.Fatalf("warm query %d: %d hits+revalidations, want %d", i, got, d)
		}
		if len(r.Rows) != len(cold.Rows) {
			t.Fatalf("warm query %d: %d rows, cold run had %d", i, len(r.Rows), len(cold.Rows))
		}
		if !r.Stats.PlanCached {
			t.Fatalf("warm query %d: plan not served from the plan cache", i)
		}
		if r.Plan != cold.Plan {
			t.Fatalf("warm query %d: cached plan %q differs from cold plan %q", i, r.Plan, cold.Plan)
		}
	}

	var st storeStats
	mustCall(t, ts, "GET", "/stats", "", &st)
	if st.Fetches != d {
		t.Fatalf("store fetched %d pages for 4 queries, want exactly %d", st.Fetches, d)
	}
	if st.Served != 4 {
		t.Fatalf("served %d queries, want 4", st.Served)
	}
	if st.PlanHits != 3 || st.PlanMisses != 1 {
		t.Fatalf("plan cache: %d hits / %d misses, want 3 / 1", st.PlanHits, st.PlanMisses)
	}
	t.Logf("4 queries, %d distinct accesses each, %d total GETs, %d hits, %d revalidations, %d plan-cache hits",
		d, st.Fetches, st.Hits, st.Revalidations, st.PlanHits)
}

// smokeFeed exercises the push pipeline end to end: it subscribes a
// standing query over the professor pages, opens its SSE stream, applies
// deterministic mutations until one edits a rank, and requires the stream
// to deliver the initial snapshot and then exactly the one-added/one-removed
// delta that rank edit causes. It ends by checking the /stats ledgers and
// that unsubscribing closes the stream.
func smokeFeed(t *testing.T, ts *httptest.Server) {
	t.Helper()
	var sub subscribeResponse
	mustCall(t, ts, "POST", "/subscribe", "SELECT p.PName, p.Rank FROM Professor p", &sub)
	if len(sub.Footprint) == 0 {
		t.Fatalf("subscription %d has an empty footprint", sub.ID)
	}

	// Open the SSE stream before mutating, so nothing can slip past it.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/watch?id=%d&after=0&sse=1", ts.URL, sub.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req) //lint:allow fetchgate client of our own query API, not a page fetch
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch: content-type %q, want text/event-stream", ct)
	}
	deltas := make(chan standing.Delta, 16)
	go func() {
		defer close(deltas)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var d standing.Delta
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &d) == nil {
				deltas <- d
			}
		}
	}()
	next := func(what string) standing.Delta {
		t.Helper()
		select {
		case d, ok := <-deltas:
			if !ok {
				t.Fatalf("%s: SSE stream closed early", what)
			}
			return d
		case <-ctx.Done():
			t.Fatalf("%s: no delta within the deadline", what)
		}
		return standing.Delta{}
	}

	// Seq 1 is the initial snapshot: every professor, nothing removed.
	d := next("initial snapshot")
	if d.Seq != 1 || len(d.Added) == 0 || len(d.Removed) != 0 {
		t.Fatalf("initial snapshot = seq %d, %d added, %d removed", d.Seq, len(d.Added), len(d.Removed))
	}
	profCount := len(d.Added)

	// The workload is deterministic, so walk it until a rank edit lands on
	// the subscription's footprint. Touches and course edits along the way
	// must not produce deltas — the answer is unchanged.
	edited := false
	for i := 0; i < 50 && !edited; i++ {
		var muts []mutationResponse
		mustCall(t, ts, "POST", "/mutate?n=1", "", &muts)
		for _, m := range muts {
			if m.Op == "edit-rank" {
				edited = true
			}
		}
	}
	if !edited {
		t.Fatal("no edit-rank in 50 deterministic steps; workload mix changed?")
	}
	d = next("rank-edit delta")
	if d.Seq < 2 || len(d.Added) != 1 || len(d.Removed) != 1 {
		t.Fatalf("rank-edit delta = seq %d, %d added, %d removed; want exactly 1/1", d.Seq, len(d.Added), len(d.Removed))
	}

	var st storeStats
	mustCall(t, ts, "GET", "/stats", "", &st)
	if st.Feed == nil || st.Feed.Events == 0 {
		t.Fatal("stats: no feed events after the mutation workload")
	}
	if st.Standing == nil || st.Standing.Live != 1 || st.Standing.Deltas < 2 {
		t.Fatalf("stats: standing ledger %+v, want 1 live sub and ≥2 deltas", st.Standing)
	}
	if st.Invalidations == 0 && st.PushStale == 0 {
		t.Fatal("stats: mutations invalidated nothing in the page store")
	}

	// Unsubscribing must end the stream promptly.
	mustCall(t, ts, "DELETE", fmt.Sprintf("/subscribe?id=%d", sub.ID), "", nil)
	for range deltas {
	}
	t.Logf("feed: %d-prof snapshot then 1+/1- delta over SSE, %d feed events, %d invalidations",
		profCount, st.Feed.Events, st.Invalidations)
}
