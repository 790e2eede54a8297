package exp

import (
	"fmt"
	"time"

	"ulixes/internal/cq"
	"ulixes/internal/engine"
	"ulixes/internal/pagecache"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
	"ulixes/internal/stats"
	"ulixes/internal/view"
)

// p4Shapes are the multi-query workload's query mix: entry-page scans,
// selective follow-chains and a join, so consecutive queries overlap on
// index pages and on subsets of the leaf pages.
var p4Shapes = []string{
	"SELECT p.PName FROM Professor p",
	"SELECT p.PName, p.Email FROM Professor p WHERE p.Rank = 'Full'",
	"SELECT c.CName, c.Description FROM Course c WHERE c.Session = 'Fall'",
	"SELECT d.DName, d.Address FROM Dept d",
	"SELECT ci.CName, ci.PName FROM CourseInstructor ci",
}

// p4Reps controls the workload size: len(p4Shapes) × p4Reps queries.
const p4Reps = 4

// P4 measures the shared cross-query page store on a repeating multi-query
// workload. The baseline gives every query a cold private store (the
// repo's default); the shared configurations run the same queries, in the
// same order, through one pagecache.Cache under three TTL settings:
//
//	forever  — pages never expire: every repeat access is a free hit;
//	60s      — pages expire mid-workload: expired accesses cost one §8
//	           light connection, and only pages the site actually modified
//	           (two are touched halfway through) are re-downloaded;
//	0        — pages expire immediately: every repeat access revalidates.
//
// A deterministic manually-advanced clock (10s per query) drives expiry, so
// every count in the table is exact. Two invariants are checked per query:
// the answer equals the cold answer, and the distinct-access count
// (downloads + hits + revalidations) equals the cold download count — the
// paper's C(E), invariant across store states.
func P4(params sitegen.UniversityParams) (*Table, error) {
	u, err := sitegen.GenerateUniversity(params)
	if err != nil {
		return nil, err
	}
	st := stats.CollectInstance(u.Instance)

	queries := make([]*cq.Query, 0, len(p4Shapes)*p4Reps)
	for r := 0; r < p4Reps; r++ {
		for _, src := range p4Shapes {
			q, err := cq.Parse(src)
			if err != nil {
				return nil, fmt.Errorf("P4: %w", err)
			}
			queries = append(queries, q)
		}
	}

	// Baseline: every query pays its full cost against a private store.
	coldSite, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		return nil, err
	}
	eng := engine.New(view.UniversityView(u.Scheme), coldSite, st)
	coldAnswers := make([]string, len(queries))
	coldPages := make([]int, len(queries))
	coldTotal := 0
	for i, q := range queries {
		ans, err := eng.QueryCQ(q)
		if err != nil {
			return nil, fmt.Errorf("P4 cold query %d: %w", i, err)
		}
		coldAnswers[i] = ans.Result.String()
		coldPages[i] = ans.Exec.Pages
		coldTotal += ans.Exec.Pages
	}

	t := &Table{
		ID: "P4",
		Title: fmt.Sprintf("Shared page store: %d-query workload (%d shapes × %d), 10s between queries, 2 pages modified halfway",
			len(queries), len(p4Shapes), p4Reps),
		Header: []string{"configuration", "GETs", "HEADs", "hits", "revalidations", "GET reduction"},
	}
	t.AddRow("cold per-query fetchers", d(coldTotal), "0", "0", "0", "1.0×")

	for _, cfg := range []struct {
		name string
		ttl  time.Duration
	}{
		{"shared store, ttl=forever", pagecache.Forever},
		{"shared store, ttl=60s", 60 * time.Second},
		{"shared store, ttl=0 (always revalidate)", 0},
	} {
		gets, heads, hits, revals, err := p4Shared(u, st, queries, coldAnswers, coldPages, cfg.ttl)
		if err != nil {
			return nil, fmt.Errorf("P4 %s: %w", cfg.name, err)
		}
		t.AddRow(cfg.name, d(gets), d(heads), d(hits), d(revals),
			fmt.Sprintf("%.1f×", float64(coldTotal)/float64(gets)))
		if gets*3 > coldTotal {
			return nil, fmt.Errorf("P4 %s: %d GETs is less than a 3× cut of the cold %d", cfg.name, gets, coldTotal)
		}
	}
	t.AddNote("every configuration answers every query identically, and each query's downloads + hits + revalidations equals its cold download count — the paper's distinct-access cost C(E) is invariant in the store state; only the network price of an access changes")
	t.AddNote("with ttl=60s the only re-downloads are the two pages the site modified: every other expired access is settled by a light connection (§8)")
	return t, nil
}

// p4Shared replays the workload through one shared store at the given TTL,
// advancing the injected clock 10s per query and touching two pages halfway
// through, and returns the store-wide network counters.
func p4Shared(u *sitegen.University, st *stats.Stats, queries []*cq.Query,
	coldAnswers []string, coldPages []int, ttl time.Duration) (gets, heads, hits, revals int, err error) {

	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	now := time.Date(1998, time.March, 23, 0, 0, 0, 0, time.UTC)
	cache := pagecache.New(ms, u.Scheme, pagecache.Config{
		DefaultTTL: ttl,
		Clock:      func() time.Time { return now },
	})
	eng := engine.New(view.UniversityView(u.Scheme), ms, st)
	eng.Exec = engine.ExecOptions{Cache: cache}

	for i, q := range queries {
		if i == len(queries)/2 {
			// The site edits two professor pages mid-workload: their next
			// expired access must be re-downloaded, everything else is
			// settled by light connections.
			urls := ms.URLs()
			touched := 0
			for _, url := range urls {
				if s, ok := ms.SchemeOf(url); ok && s == sitegen.ProfPage {
					if !ms.Touch(url) {
						return 0, 0, 0, 0, fmt.Errorf("touch %s failed", url)
					}
					if touched++; touched == 2 {
						break
					}
				}
			}
		}
		ans, err := eng.QueryCQ(q)
		if err != nil {
			return 0, 0, 0, 0, fmt.Errorf("query %d: %w", i, err)
		}
		if ans.Result.String() != coldAnswers[i] {
			return 0, 0, 0, 0, fmt.Errorf("query %d: shared-store answer differs from cold", i)
		}
		ex := ans.Exec
		if got := ex.Pages + ex.CacheHits + ex.Revalidations; got != coldPages[i] {
			return 0, 0, 0, 0, fmt.Errorf("query %d: %d distinct accesses, cold run had %d", i, got, coldPages[i])
		}
		now = now.Add(10 * time.Second)
	}
	cs := cache.Stats()
	return ms.Counters().Gets(), ms.Counters().Heads(), cs.Hits, cs.Revalidations, nil
}
