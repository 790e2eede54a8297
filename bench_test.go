package ulixes_test

// One benchmark per reproduced experiment (see DESIGN.md's index and
// EXPERIMENTS.md for paper-vs-measured numbers). The benchmarks report the
// experiment's headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates every table's key numbers alongside the usual ns/op.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ulixes"
	"ulixes/internal/exp"
	"ulixes/internal/guard"
	"ulixes/internal/optimizer"
	"ulixes/internal/pagecache"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
	"ulixes/internal/stats"
	"ulixes/internal/view"
)

// benchBib is a reduced bibliography that keeps the orders-of-magnitude gap
// of E1 while staying fast enough to iterate.
var benchBib = sitegen.BibliographyParams{
	Authors: 500, Confs: 15, DBConfs: 4, Years: 6, PapersPerEdition: 10, AuthorsPerPaper: 2, Seed: 1998,
}

// BenchmarkE1IntroAccessPaths regenerates the Introduction's four-path
// comparison. Metric pages_path4/pages_path1 is the orders-of-magnitude gap.
func BenchmarkE1IntroAccessPaths(b *testing.B) {
	var t *exp.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = exp.E1(benchBib)
		if err != nil {
			b.Fatal(err)
		}
	}
	p1 := atoiCell(b, t.Rows[0][1])
	p4 := atoiCell(b, t.Rows[3][1])
	b.ReportMetric(float64(p1), "pages_path1")
	b.ReportMetric(float64(p4), "pages_path4")
	b.ReportMetric(float64(p4)/float64(p1), "path4/path1")
}

// BenchmarkE2PointerJoin regenerates Example 7.1: C(1d) ≤ C(2d).
func BenchmarkE2PointerJoin(b *testing.B) {
	var t *exp.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = exp.E2(sitegen.PaperUniversityParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(atofCell(b, t.Rows[0][1]), "C_join")
	b.ReportMetric(atofCell(b, t.Rows[1][1]), "C_chase")
}

// BenchmarkE3PointerChase regenerates Example 7.2 at the paper's sizes:
// chase ≈ 25, join well over 50.
func BenchmarkE3PointerChase(b *testing.B) {
	var t *exp.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = exp.E3(sitegen.PaperUniversityParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(atofCell(b, t.Rows[0][1]), "C_join")
	b.ReportMetric(atofCell(b, t.Rows[1][1]), "C_chase")
}

// BenchmarkE4PlanSelection regenerates the plan-selection check over the
// query suite; the metric counts suboptimal choices (should be 0).
func BenchmarkE4PlanSelection(b *testing.B) {
	var t *exp.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = exp.E4(sitegen.PaperUniversityParams(), 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	bad := 0
	for _, row := range t.Rows {
		if row[len(row)-1] != "yes" {
			bad++
		}
	}
	b.ReportMetric(float64(bad), "suboptimal_choices")
}

// BenchmarkE5MatView regenerates §8's maintenance-cost table; the metric is
// downloads at a 0% update rate (should be 0).
func BenchmarkE5MatView(b *testing.B) {
	var t *exp.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = exp.E5(sitegen.PaperUniversityParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(atoiCell(b, t.Rows[0][2])), "downloads_at_0pct")
	b.ReportMetric(float64(atoiCell(b, t.Rows[0][1])), "light_connections")
}

// BenchmarkA1NoPushing regenerates the Rule 6 ablation on Example 7.1.
func BenchmarkA1NoPushing(b *testing.B) {
	var t *exp.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = exp.A1(sitegen.PaperUniversityParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(atofCell(b, t.Rows[0][1]), "C_all_rules")
	b.ReportMetric(atofCell(b, t.Rows[1][1]), "C_no_rule6")
}

// BenchmarkA2NoChase regenerates the Rule 9 ablation on Example 7.2.
func BenchmarkA2NoChase(b *testing.B) {
	var t *exp.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = exp.A2(sitegen.PaperUniversityParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(atofCell(b, t.Rows[0][1]), "C_all_rules")
	b.ReportMetric(atofCell(b, t.Rows[4][1]), "C_no_rule9")
}

// BenchmarkA3CostModel regenerates the estimate-vs-measured accuracy table;
// the metric is the worst estimate/measured ratio deviation from 1.
func BenchmarkA3CostModel(b *testing.B) {
	var t *exp.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = exp.A3(sitegen.PaperUniversityParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for _, row := range t.Rows {
		r := atofCell(b, row[3])
		dev := r - 1
		if dev < 0 {
			dev = -dev
		}
		if dev > worst {
			worst = dev
		}
	}
	b.ReportMetric(worst, "worst_ratio_dev")
}

// BenchmarkOptimizeExample72 measures raw optimizer latency on the paper's
// hardest query (4 atoms, 2×2 default-navigation combinations).
func BenchmarkOptimizeExample72(b *testing.B) {
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		b.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		b.Fatal(err)
	}
	sys := ulixes.OpenWithStats(ms, u.Scheme, view.UniversityView(u.Scheme), stats.CollectInstance(u.Instance))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Plan(exp.Example72Query); err != nil {
			b.Fatal(err)
		}
	}
}

// coldShapes are the join shapes of BenchmarkOptimizeCold: two to five
// atoms of the university chain, the 4-atom one being Example 7.2.
var coldShapes = []struct{ name, query string }{
	{"2atom", `SELECT p.PName, p.Email FROM Professor p, ProfDept pd
		WHERE p.PName = pd.PName AND pd.DName = 'Computer Science'`},
	{"3atom", exp.Example71Query},
	{"4atom", exp.Example72Query},
	{"5atom", `SELECT p.PName, d.Address, c.CName
		FROM Professor p, ProfDept pd, Dept d, CourseInstructor ci, Course c
		WHERE p.PName = pd.PName AND pd.DName = d.DName
		  AND p.PName = ci.PName AND ci.CName = c.CName
		  AND c.Type = 'Graduate' AND d.DName = 'Computer Science'`},
}

// BenchmarkOptimizeCold measures one uncached run of Algorithm 1 per join
// width — what a new query shape, a new statistics value or a
// cold view-selection estimate pays. plans/op is the number of plans the
// search considered, so ns/op and B/op divide into per-plan figures. The
// testing package collects garbage before each round, which may empty the
// arena pool, so each round plans once untimed: the timed runs then reuse
// an arena that has grown to the shape, as a server's searches do.
func BenchmarkOptimizeCold(b *testing.B) {
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		b.Fatal(err)
	}
	opt := optimizer.New(view.UniversityView(u.Scheme), stats.CollectInstance(u.Instance))
	for _, shape := range coldShapes {
		q, err := ulixes.ParseQuery(shape.query)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			res, err := opt.Optimize(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err = opt.Optimize(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.PlansConsidered), "plans/op")
		})
	}
}

// BenchmarkVirtualQuery measures end-to-end latency of a mid-size virtual
// query (optimize + navigate + wrap).
func BenchmarkVirtualQuery(b *testing.B) {
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		b.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		b.Fatal(err)
	}
	sys := ulixes.OpenWithStats(ms, u.Scheme, view.UniversityView(u.Scheme), stats.CollectInstance(u.Instance))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := sys.Query("SELECT c.CName, c.Description FROM Course c WHERE c.Session = 'Fall'")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(ans.PagesFetched), "pages")
			b.ReportMetric(float64(ans.Result.Len()), "tuples")
		}
	}
}

// BenchmarkPreparedQuery measures the same end-to-end query with the
// prepared-plan cache attached: after the first iteration every run is a
// plan-cache hit, so the measurement is parse + specialize + navigate +
// wrap — Algorithm 1 drops out of the loop.
func BenchmarkPreparedQuery(b *testing.B) {
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		b.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		b.Fatal(err)
	}
	sys := ulixes.OpenWithStats(ms, u.Scheme, view.UniversityView(u.Scheme), stats.CollectInstance(u.Instance))
	cache := sys.EnablePlanCache(ulixes.PlanCacheConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := sys.Query("SELECT c.CName, c.Description FROM Course c WHERE c.Session = 'Fall'")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(ans.PagesFetched), "pages")
			b.ReportMetric(float64(ans.Result.Len()), "tuples")
		}
	}
	b.StopTimer()
	c := cache.Counters()
	if b.N > 1 && c.Hits == 0 {
		b.Fatal("no plan-cache hits during the benchmark")
	}
}

func atoiCell(b *testing.B, s string) int {
	b.Helper()
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func atofCell(b *testing.B, s string) float64 {
	b.Helper()
	var v float64
	var frac float64 = 0
	div := 1.0
	dot := false
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9':
			if dot {
				div *= 10
				frac = frac + float64(c-'0')/div
			} else {
				v = v*10 + float64(c-'0')
			}
		case c == '.':
			dot = true
		default:
			return v + frac
		}
	}
	return v + frac
}

// BenchmarkLargeSiteQuery exercises the full stack at a larger scale: a
// 1,300-page university (1,000 courses), optimizer + navigation + wrapping.
func BenchmarkLargeSiteQuery(b *testing.B) {
	u, err := sitegen.GenerateUniversity(sitegen.UniversityParams{
		Depts: 10, Profs: 300, Courses: 1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		b.Fatal(err)
	}
	sys := ulixes.OpenWithStats(ms, u.Scheme, view.UniversityView(u.Scheme), stats.CollectInstance(u.Instance))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := sys.Query(`SELECT p.PName, p.Email
			FROM Professor p, ProfDept pd
			WHERE p.PName = pd.PName AND pd.DName = 'Computer Science'`)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(ans.PagesFetched), "pages")
			b.ReportMetric(float64(ans.Result.Len()), "tuples")
		}
	}
}

// BenchmarkPipelinedVsSequential sweeps the worker count and the site
// fan-out for the bibliography author sweep (E1 path 4) under a simulated
// per-download RTT: wall time is the measured quantity; page accesses are
// identical in every variant by construction (asserted).
func BenchmarkPipelinedVsSequential(b *testing.B) {
	for _, fanout := range []int{100, 300} {
		params := benchBib
		params.Authors = fanout
		bib, err := sitegen.GenerateBibliography(params)
		if err != nil {
			b.Fatal(err)
		}
		ms, err := site.NewMemSite(bib.Instance, nil)
		if err != nil {
			b.Fatal(err)
		}
		ms.SetLatency(1 * time.Millisecond)
		sys := ulixes.OpenWithStats(ms, bib.Scheme, view.BibliographyView(bib.Scheme),
			stats.CollectInstance(bib.Instance))
		plan := exp.BibAuthorPlan(bib)

		_, seqStats, err := sys.ExecuteOpts(plan, ulixes.ExecOptions{Workers: 1, Pipelined: false})
		if err != nil {
			b.Fatal(err)
		}
		variants := []struct {
			name string
			opts ulixes.ExecOptions
		}{
			{"sequential", ulixes.ExecOptions{Workers: 1, Pipelined: false}},
			{"pipelined-w1", ulixes.ExecOptions{Workers: 1, Pipelined: true}},
			{"pipelined-w2", ulixes.ExecOptions{Workers: 2, Pipelined: true}},
			{"pipelined-w4", ulixes.ExecOptions{Workers: 4, Pipelined: true}},
			{"pipelined-w8", ulixes.ExecOptions{Workers: 8, Pipelined: true}},
			{"pipelined-w16", ulixes.ExecOptions{Workers: 16, Pipelined: true}},
		}
		for _, v := range variants {
			b.Run(fmt.Sprintf("authors=%d/%s", fanout, v.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rel, st, err := sys.ExecuteOpts(plan, v.opts)
					if err != nil {
						b.Fatal(err)
					}
					if st.Pages != seqStats.Pages {
						b.Fatalf("pages = %d, sequential fetched %d", st.Pages, seqStats.Pages)
					}
					if i == 0 {
						b.ReportMetric(float64(st.Pages), "pages")
						b.ReportMetric(float64(st.PeakInFlight), "peak_inflight")
						// tuples lets benchjson derive bytes-allocated/tuple
						// from B/op.
						b.ReportMetric(float64(rel.Len()), "tuples")
					}
				}
			})
		}
	}
}

// rttSuite builds rtt_navigate's rig: the ten E4 shapes on the benchmark's
// university behind the site-health guard, with rtt per GET, plans cached,
// and a fresh page store without MaxInFlight per query, pipelined at
// Workers 8. It returns one pass over the suite, which reports the pages
// fetched, the answer tuples and the peak number of GETs in flight.
func rttSuite(tb testing.TB, rtt time.Duration) func() (pages, tuples, peak int) {
	tb.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.UniversityParams{Courses: 400, Profs: 120, Depts: 8})
	if err != nil {
		tb.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		tb.Fatal(err)
	}
	ms.SetLatency(rtt)
	server := guard.New(ms, guard.Config{})
	sys := ulixes.OpenWithStats(server, u.Scheme, view.UniversityView(u.Scheme), stats.CollectInstance(u.Instance))
	sys.EnablePlanCache(ulixes.PlanCacheConfig{})
	queries := make([]*ulixes.Query, len(exp.QuerySuite))
	for i, q := range exp.QuerySuite {
		if queries[i], err = ulixes.ParseQuery(q.Query); err != nil {
			tb.Fatal(err)
		}
	}
	const workers = 8
	run := func() (pages, tuples, peak int) {
		for _, q := range queries {
			ans, err := sys.QueryCQOptsCtx(context.Background(), q, ulixes.ExecOptions{
				Pipelined: true,
				Workers:   workers,
				Cache:     pagecache.New(server, u.Scheme, pagecache.Config{DefaultTTL: pagecache.Forever, Workers: workers}),
			})
			if err != nil {
				tb.Fatal(err)
			}
			pages += ans.Exec.Pages
			tuples += ans.Result.Len()
			peak = max(peak, ans.Exec.PeakInFlight)
		}
		return pages, tuples, peak
	}
	run() // plan every shape once: the measured passes are plan-cache hits
	return run
}

// BenchmarkRTTSuite is rtt_navigate in the root suite: one op is one pass
// of rttSuite with a 2 ms round trip per GET. Wall time follows each plan's
// chain of dependent round trips; pages and peak_inflight show what was
// fetched and how much of it overlapped.
func BenchmarkRTTSuite(b *testing.B) {
	run := rttSuite(b, 2*time.Millisecond)
	b.ResetTimer()
	var pages, tuples, peak int
	for i := 0; i < b.N; i++ {
		pages, tuples, peak = run()
	}
	b.ReportMetric(float64(pages), "pages")
	b.ReportMetric(float64(tuples), "tuples")
	b.ReportMetric(float64(peak), "peak_inflight")
}

// BenchmarkCollectSite is the statistics crawl rtt_navigate's set-up pays in
// ulixes.Open: stats.CollectSite over the benchmark's university behind the
// site-health guard, with a 2 ms round trip per GET. pages is the pages one
// crawl downloads.
func BenchmarkCollectSite(b *testing.B) {
	u, err := sitegen.GenerateUniversity(sitegen.UniversityParams{Courses: 400, Profs: 120, Depts: 8})
	if err != nil {
		b.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		b.Fatal(err)
	}
	ms.SetLatency(2 * time.Millisecond)
	server := guard.New(ms, guard.Config{})
	b.ResetTimer()
	var pages int
	for i := 0; i < b.N; i++ {
		if _, pages, err = stats.CollectSite(server, u.Scheme); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pages), "pages")
}

// warmSuite builds the in-process part of the warm_repeat workload: the
// ten E4 shapes over the 400-course university, behind the guard, on one
// shared page store that already holds every page, with every shape's plan
// cached. It returns one pass over the suite — each query a plan-cache hit
// over resident pages, its answer sorted as ulixesd sorts it for the
// response — which reports the answer rows of the pass.
func warmSuite(tb testing.TB) func() (tuples int) {
	tb.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.UniversityParams{Courses: 400, Profs: 120, Depts: 8})
	if err != nil {
		tb.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		tb.Fatal(err)
	}
	server := guard.New(ms, guard.Config{})
	sys := ulixes.OpenWithStats(server, u.Scheme, view.UniversityView(u.Scheme), stats.CollectInstance(u.Instance))
	sys.EnablePlanCache(ulixes.PlanCacheConfig{})
	opts := ulixes.ExecOptions{
		Pipelined: true,
		Cache:     pagecache.New(server, u.Scheme, pagecache.Config{DefaultTTL: pagecache.Forever}),
	}
	queries := make([]*ulixes.Query, len(exp.QuerySuite))
	for i, q := range exp.QuerySuite {
		if queries[i], err = ulixes.ParseQuery(q.Query); err != nil {
			tb.Fatal(err)
		}
	}
	run := func() (tuples int) {
		for _, q := range queries {
			ans, err := sys.QueryCQOptsCtx(context.Background(), q, opts)
			if err != nil {
				tb.Fatal(err)
			}
			tuples += len(ans.Result.Sorted())
		}
		return tuples
	}
	run() // plan every shape and fetch every page once
	return run
}

// BenchmarkWarmSuite times warmSuite's pass. One op is one pass over the
// suite; tuples is the answer rows of a pass.
func BenchmarkWarmSuite(b *testing.B) {
	run := warmSuite(b)
	b.ReportAllocs()
	b.ResetTimer()
	var tuples int
	for i := 0; i < b.N; i++ {
		tuples = run()
	}
	b.ReportMetric(float64(tuples), "tuples")
}

// BenchmarkMaterializedQuery measures a warm materialized-view query (only
// light connections).
func BenchmarkMaterializedQuery(b *testing.B) {
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		b.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		b.Fatal(err)
	}
	sys := ulixes.OpenWithStats(ms, u.Scheme, view.UniversityView(u.Scheme), stats.CollectInstance(u.Instance))
	mv, err := sys.Materialize()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := mv.Query("SELECT p.PName, p.Email FROM Professor p WHERE p.Rank = 'Full'")
		if err != nil {
			b.Fatal(err)
		}
		if ans.Exec.Pages != 0 {
			b.Fatal("unexpected downloads on a quiet site")
		}
	}
}
