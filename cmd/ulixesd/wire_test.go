package main

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
)

// wireFlatten turns a decoded JSON value into dotted key paths (array
// elements by index) mapped to their scalar values.
func wireFlatten(prefix string, v any, out map[string]any) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			wireFlatten(p, e, out)
		}
	case []any:
		for i, e := range x {
			wireFlatten(strings.TrimPrefix(fmt.Sprintf("%s.%d", prefix, i), "."), e, out)
		}
	default:
		out[prefix] = v
	}
}

// present marks a key whose value depends on timing, so only its presence
// on the wire is pinned.
type present struct{}

// checkWire asserts every expected key is on the wire with the expected
// value (a float64 for JSON numbers, present{} for timing-dependent ones).
func checkWire(t *testing.T, what string, v any, want map[string]any) {
	t.Helper()
	got := map[string]any{}
	wireFlatten("", v, got)
	for k, w := range want {
		g, ok := got[k]
		switch {
		case !ok:
			t.Errorf("%s: key %q missing", what, k)
		case w == (present{}):
		case g != w:
			t.Errorf("%s: %s = %v, want %v", what, k, g, w)
		}
	}
	if t.Failed() {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			t.Logf("%s: %s = %v", what, k, got[k])
		}
	}
}

// wireCall sends one request to the server and decodes its JSON reply
// generically, so the test sees exactly the keys on the wire.
func wireCall(t *testing.T, ts *httptest.Server, method, path, body string) any {
	t.Helper()
	var v any
	mustCall(t, ts, method, path, body, &v)
	return v
}

// TestWireSurface pins the JSON keys and deterministic values /query and
// /stats emit over a fixed request sequence: a cold query, a warm one, the
// third triggering view selection, a view-answered fourth, a standing query
// re-answered after a hook-fed mutation. Every counter block of /stats is
// live on this server: the guard, the plan cache, view answering and the
// hook feed.
func TestWireSurface(t *testing.T) {
	srv := newTestServer(t, "-ttl", "0", "-views-auto", "-views-every", "3", "-feed", "hook")
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	const q = "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"
	cold := wireCall(t, ts, "POST", "/query", q)
	checkWire(t, "cold /query", cold, map[string]any{
		"plan": present{}, "estimatedCost": 7.0, "columns.0": "PName",
		"rows.0.0": "Prof. 000", "rows.1.0": "Prof. 003",
		"stats.accesses": 7.0, "stats.pages": 7.0, "stats.cacheHits": 0.0,
		"stats.revalidations": 0.0, "stats.lightConnections": 0.0, "stats.bytes": 5611.0,
		"stats.wallMs": present{}, "stats.planMs": present{},
	})
	warm := wireCall(t, ts, "POST", "/query", q)
	checkWire(t, "warm /query", warm, map[string]any{
		"estimatedCost": 7.0, "rows.1.0": "Prof. 003",
		"stats.accesses": 7.0, "stats.pages": 0.0, "stats.cacheHits": 0.0,
		"stats.revalidations": 7.0, "stats.lightConnections": 7.0, "stats.bytes": 0.0,
		"stats.wallMs": present{}, "stats.planMs": present{}, "stats.planCached": true,
	})
	wireCall(t, ts, "POST", "/query", q)
	srv.selectWG.Wait()
	fromView := wireCall(t, ts, "POST", "/query", q)
	checkWire(t, "view /query", fromView, map[string]any{
		"plan": "(answered from materialized views)", "estimatedCost": 0.0,
		"columns.0": "PName", "rows.0.0": "Prof. 000", "rows.1.0": "Prof. 003",
		"stats.accesses": 0.0, "stats.pages": 0.0, "stats.cacheHits": 0.0,
		"stats.revalidations": 0.0, "stats.lightConnections": 0.0, "stats.bytes": 0.0,
		"stats.wallMs": present{}, "stats.planMs": 0.0, "stats.fromView": true,
	})

	const sq = "SELECT p.PName, p.Rank FROM Professor p"
	sub := wireCall(t, ts, "POST", "/subscribe", sq)
	checkWire(t, "/subscribe", sub, map[string]any{
		"id": 1.0, "query": sq, "footprint.0": "ProfListPage", "footprint.1": "ProfPage",
	})
	snap := wireCall(t, ts, "GET", "/watch?id=1&after=0", "")
	checkWire(t, "snapshot /watch", snap, map[string]any{
		"0.seq": 1.0, "0.at": present{},
		"0.added.0": "<PName: Prof. 000, Rank: Full>", "0.added.5": "<PName: Prof. 005, Rank: Assistant>",
	})
	// The seeded workload's seventh step is the first rank edit.
	for i := 0; i < 50; i++ {
		muts := wireCall(t, ts, "POST", "/mutate?n=1", "").([]any)
		if muts[0].(map[string]any)["op"] == "edit-rank" {
			break
		}
	}
	delta := wireCall(t, ts, "GET", "/watch?id=1&after=1", "")
	checkWire(t, "delta /watch", delta, map[string]any{
		"0.seq": 2.0, "0.at": present{},
		"0.added.0": "<PName: Prof. 005, Rank: Full>", "0.removed.0": "<PName: Prof. 005, Rank: Assistant>",
	})

	// Ring and ledger bytes hold the deltas' wall-clock stamps, whose
	// rendered length varies, so only their presence is pinned.
	stats := wireCall(t, ts, "GET", "/stats", "")
	checkWire(t, "/stats", stats, map[string]any{
		"fetches": 7.0, "hits": 0.0, "revalidations": 14.0, "lightConnections": 14.0,
		"retries": 0.0, "evictions": 0.0, "bytesFetched": 5611.0,
		"invalidations": 1.0, "pushStale": 1.0,
		"entryCount": 6.0, "entryBytes": 4713.0,
		"inflight": 0.0, "served": 4.0, "rejected": 0.0,
		"queueDepth": 0.0, "queueDropped": 0.0, "queueAdmitted": 4.0,
		"deadlineExpired": 0.0, "panicsRecovered": 0.0,
		"memLedger.pagecache": 4713.0, "memLedger.standingRings": present{}, "memBytes": present{},
		"planHits": 2.0, "planMisses": 1.0, "planEntries": 1.0,
		"viewHits": 4.0, "viewMisses": 3.0, "viewBytes": 417.0, "selectorRuns": 1.0,
		"matview.lightConnections": 7.0, "matview.downloads": 34.0,
		"matview.updatesApplied": 7.0, "matview.deletionsApplied": 0.0,
		"feed.events": 7.0, "feed.updates": 3.0, "feed.touches": 4.0,
		"standing.live": 1.0, "standing.subscribes": 1.0, "standing.events": 7.0,
		"standing.reanswers": 3.0, "standing.deltas": 2.0,
		"standing.addedTuples": 7.0, "standing.removedTuples": 1.0, "standing.ringBytes": present{},
		"queryTotals.accesses": 21.0, "queryTotals.pages": 7.0, "queryTotals.cacheHits": 0.0,
		"queryTotals.revalidations": 14.0, "queryTotals.lightConnections": 14.0,
		"queryTotals.bytes": 5611.0, "queryTotals.peakInFlight": present{},
		"queryTotals.wallMs": present{}, "queryTotals.planMs": present{},
		"hosts.0.host": "http://univ.example.edu", "hosts.0.state": "closed",
		"hosts.0.errorRate": 0.0, "hosts.0.latencyMs": present{}, "hosts.0.samples": present{},
		"hosts.0.inFlight": 0.0, "hosts.0.fastFails": 0.0, "hosts.0.hedges": 0.0,
		"hosts.0.hedgeWins": 0.0, "hosts.0.trips": 0.0,
	})
}
