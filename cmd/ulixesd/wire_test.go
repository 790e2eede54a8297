package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"ulixes"
	"ulixes/internal/changefeed"
	"ulixes/internal/guard"
	"ulixes/internal/overload"
	"ulixes/internal/pagecache"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
	"ulixes/internal/standing"
	"ulixes/internal/view"
	"ulixes/internal/vselect"
)

// wireFixture wires a server the way main does with -guard, -plan-cache,
// -views-auto -views-every 3, -feed hook and -ttl 0: every counter block of
// /stats is live.
func wireFixture(t *testing.T) *server {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.UniversityParams{Courses: 12, Profs: 6, Depts: 2})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	views := view.UniversityView(u.Scheme)
	g := guard.New(ms, guard.Config{})
	ledger := overload.NewLedger()
	cache := pagecache.New(g, u.Scheme, pagecache.Config{
		DefaultTTL: 0,
		Clock:      site.LogicalClock(),
		Meter:      ledger.Account("pagecache"),
	})
	sys, err := ulixes.Open(g, u.Scheme, views)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetExec(ulixes.ExecOptions{Cache: cache})
	sys.EnablePlanCache(ulixes.PlanCacheConfig{})
	sys.EnableWorkload(0)
	sys.EnableViewAnswering(ulixes.ViewManagerConfig{})
	srv := newServer(sys, cache, 4)
	srv.guard, srv.ledger = g, ledger
	srv.selector = vselect.New(vselect.Config{Views: views})
	srv.viewsEvery = 3

	mon := changefeed.New(g, changefeed.Config{Clock: time.Now})
	mon.Subscribe(changefeed.SinkFunc(func(ev changefeed.Event) {
		if ev.Kind == site.ChangeTouched {
			cache.MarkStale(ev.URL)
			return
		}
		cache.Invalidate(ev.URL)
	}))
	mon.Subscribe(changefeed.SinkFunc(func(ev changefeed.Event) {
		if vm := sys.ViewManager(); vm != nil {
			if _, err := vm.ApplyChange(ev.URL, ev.Scheme, ev.Kind == site.ChangeRemoved); err != nil {
				t.Errorf("view refresh of %s: %v", ev.URL, err)
			}
		}
	}))
	reg := standing.New(standing.Config{
		Views: views,
		Meter: ledger.Account("standingRings"),
		Clock: time.Now,
		Answer: func(q *ulixes.Query) (*ulixes.Relation, error) {
			ans, err := sys.QueryCQ(q)
			if err != nil {
				return nil, err
			}
			return ans.Result, nil
		},
	})
	mon.Subscribe(reg)
	mon.AttachMemSite(ms)
	srv.feed, srv.standing = mon, reg
	srv.mutator = sitegen.NewMutator(u, ms, 1)
	return srv
}

// wireCall sends one request to the server and decodes its JSON reply
// generically, so the test sees exactly the keys on the wire.
func wireCall(t *testing.T, ts *httptest.Server, method, path, body string) any {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req) //lint:allow fetchgate client of our own query API, not a page fetch
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d", method, path, resp.StatusCode)
	}
	var v any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

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

// TestWireSurface pins the JSON keys and deterministic values /query and
// /stats emit over a fixed request sequence: a cold query, a warm one, the
// third triggering view selection, a view-answered fourth, a standing query
// re-answered after a hook-fed mutation.
func TestWireSurface(t *testing.T) {
	srv := wireFixture(t)
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
