// Command webq runs conjunctive queries against a generated web site
// through the ulixes query system, printing the chosen navigation plan, its
// estimated cost, the measured page accesses and the answer.
//
// Usage:
//
//	webq [-site university|bibliography] [-explain] [-candidates] [-mat] 'SELECT …'
//	webq -site university -relations        # list the external view
//	webq -url http://host:8098 -scheme-file site.adm -views-file site.views 'SELECT …'
//	webq -workload queries.txt              # run a whole file of queries
//
// With -mat the query runs against a materialized view (§8 of the paper),
// reporting light connections and downloads instead of page fetches. With
// -url the queries run against a real HTTP endpoint (for example one
// started with `sitegen -serve`), using scheme and view definitions loaded
// from the given files; 429/503 responses are waited out and retried up to
// -http-retries times, honoring the server's Retry-After hint, so a shed
// request delays one query instead of killing the run.
//
// With -workload the argument file holds one query per line (blank lines
// and # comments skipped). Every query runs even when earlier ones fail —
// each failure is reported and counted, and the exit status reflects
// whether any query failed, not the first one.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ulixes"
	"ulixes/internal/adm"
	"ulixes/internal/guard"
	"ulixes/internal/nalg"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
	"ulixes/internal/view"
)

func main() {
	siteName := flag.String("site", "university", "site to query: university or bibliography")
	courses := flag.Int("courses", 50, "university: number of courses")
	profs := flag.Int("profs", 20, "university: number of professors")
	depts := flag.Int("depts", 3, "university: number of departments")
	authors := flag.Int("authors", 500, "bibliography: number of authors")
	explain := flag.Bool("explain", false, "print the chosen plan as a tree")
	candidates := flag.Bool("candidates", false, "print all candidate plans with costs")
	mat := flag.Bool("mat", false, "query a materialized view instead of the live site")
	nav := flag.Bool("nav", false, "treat the argument as a Ulixes navigation expression, not a query")
	check := flag.Bool("check", false, "typecheck the plan statically and print diagnostics without executing")
	relations := flag.Bool("relations", false, "list the external relations and exit")
	baseURL := flag.String("url", "", "query a real HTTP endpoint instead of an in-memory site")
	schemeFile := flag.String("scheme-file", "", "ADM scheme file (required with -url)")
	viewsFile := flag.String("views-file", "", "view definition file (required with -url)")
	workers := flag.Int("workers", 0, "query parallelism: at most N page downloads at once on the query's private store (0 = default; see engine.ExecOptions.Workers)")
	pipelined := flag.Bool("pipelined", false, "use the streaming parallel evaluator")
	retries := flag.Int("retries", 0, "retries per page fetch (exponential backoff with jitter)")
	timeout := flag.Duration("timeout", 0, "per-attempt fetch deadline (0 = none)")
	degraded := flag.Bool("degraded", false, "return partial answers when pages are unreachable")
	useGuard := flag.Bool("guard", true, "wrap the site in the per-host health guard (circuit breakers, bulkheads, hedging)")
	breakerThreshold := flag.Float64("breaker-threshold", guard.DefaultErrorThreshold, "EWMA error rate that opens a host's circuit breaker")
	breakerOpenFor := flag.Duration("breaker-open-for", guard.DefaultOpenFor, "how long an open breaker rejects before probing")
	hostFetches := flag.Int("host-fetches", 0, "bulkhead: max concurrent fetches per host (0 = default)")
	hedgeAfter := flag.Duration("hedge-after", 0, "issue a hedged GET if the first hasn't answered in this long (0 = off)")
	workloadFile := flag.String("workload", "", "file of queries, one per line; run all, continuing past failures")
	httpRetries := flag.Int("http-retries", 3, "with -url: extra attempts on 429/503, honoring Retry-After")
	flag.Parse()

	var server site.Server
	var ws *adm.Scheme
	var views *ulixes.Views
	var err error
	if *baseURL != "" {
		server, ws, views, err = openRemote(*baseURL, *schemeFile, *viewsFile, *httpRetries)
	} else {
		server, ws, views, err = open(*siteName, *courses, *profs, *depts, *authors)
	}
	if err != nil {
		fail(err)
	}
	if *useGuard {
		server = guard.New(server, guard.Config{
			ErrorThreshold: *breakerThreshold,
			OpenFor:        *breakerOpenFor,
			MaxPerHost:     *hostFetches,
			HedgeAfter:     *hedgeAfter,
		})
	}
	sys, err := ulixes.Open(server, ws, views)
	if err != nil {
		fail(err)
	}
	execOpts := ulixes.ExecOptions{
		Workers:   *workers,
		Pipelined: *pipelined,
		Retry:     site.RetryPolicy{MaxRetries: *retries, AttemptTimeout: *timeout},
		Degraded:  *degraded,
	}
	sys.SetExec(execOpts)
	if *relations {
		for _, name := range views.Names() {
			rel := views.Relation(name)
			fmt.Printf("%s(%s) — %d default navigation(s)\n", name, strings.Join(rel.Attrs, ", "), len(rel.Navs))
		}
		return
	}
	if *workloadFile != "" {
		runWorkload(sys, *workloadFile)
		return
	}

	query := strings.TrimSpace(strings.Join(flag.Args(), " "))
	if query == "" {
		fail(fmt.Errorf("no query given; try:\n  webq \"SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'\"\n  webq -nav \"ProfListPage / ProfList -> ToProf [Rank='Full']\""))
	}

	if *nav {
		expr, err := nalg.ParseNav(views.Scheme, query)
		if err != nil {
			fail(err)
		}
		if *check {
			checkPlan(expr, views.Scheme)
			return
		}
		fmt.Println(nalg.Explain(expr))
		rel, st, err := sys.ExecuteOpts(expr, execOpts)
		if err != nil {
			fail(err)
		}
		fmt.Printf("-- %s\n", formatStats(st))
		printRelation(rel)
		return
	}

	if *check {
		res, err := sys.Plan(query)
		if err != nil {
			fail(err)
		}
		fmt.Printf("-- plan: %s\n", res.Best.Expr)
		checkPlan(res.Best.Expr, views.Scheme)
		return
	}

	if *explain || *candidates {
		out, err := sys.Explain(query)
		if err != nil {
			fail(err)
		}
		fmt.Println(out)
		if !*candidates {
			return
		}
	}

	if *mat {
		mv, err := sys.Materialize()
		if err != nil {
			fail(err)
		}
		mv.SetExec(execOpts)
		ans, err := mv.Query(query)
		if err != nil {
			fail(err)
		}
		fmt.Printf("-- materialized view: %d light connections, %d downloads, %d updates applied\n",
			ans.Exec.LightConnections, ans.Exec.Pages, ans.Exec.Updates)
		printRelation(ans.Result)
		return
	}

	ans, err := sys.Query(query)
	if err != nil {
		fail(err)
	}
	if ans.FromView {
		fmt.Printf("-- answered from materialized views (no plan built, no page accessed)\n")
	} else {
		fmt.Printf("-- plan cost: estimated %.1f, measured %d page accesses\n", ans.Plan.Cost, ans.PagesFetched)
	}
	fmt.Printf("-- %s\n", formatStats(ans.Exec))
	printRelation(ans.Result)
}

// runWorkload executes every query in the file (one per line, blank lines
// and # comments skipped). A failing query is reported and counted but
// never aborts the rest: with HTTPServer's Retry-After backoff upstream,
// transient overload delays a query, and only a genuine failure marks the
// line — the run always covers the whole file. Exits non-zero when any
// query failed.
func runWorkload(sys *ulixes.System, path string) {
	src, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	var ran, failed int
	for i, line := range strings.Split(string(src), "\n") {
		q := strings.TrimSpace(line)
		if q == "" || strings.HasPrefix(q, "#") {
			continue
		}
		ran++
		ans, err := sys.Query(q)
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "webq: line %d: %v\n", i+1, err)
			continue
		}
		fmt.Printf("line %d: %d tuples -- %s\n", i+1, ans.Result.Len(), formatStats(ans.Exec))
	}
	fmt.Printf("workload: %d/%d queries succeeded\n", ran-failed, ran)
	if failed > 0 {
		os.Exit(1)
	}
}

// checkPlan prints the static diagnostics for a plan and exits non-zero if
// any were found (the -check mode: no page is ever accessed).
func checkPlan(expr nalg.Expr, ws *adm.Scheme) {
	diags := nalg.Check(expr, ws)
	if len(diags) == 0 {
		fmt.Println("plan typechecks: OK")
		return
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "webq: %s\n", d)
	}
	os.Exit(1)
}

// formatStats renders the execution counters on one line.
func formatStats(st ulixes.ExecStats) string {
	s := fmt.Sprintf("%d pages, %.1f KB, %s wall, peak %d in-flight",
		st.Pages, float64(st.Bytes)/1024, st.Wall.Round(10*time.Microsecond), st.PeakInFlight)
	if st.AnsweredFromView {
		s += ", answered from view"
	}
	if st.Retries > 0 {
		s += fmt.Sprintf(", %d retries", st.Retries)
	}
	if st.Stale > 0 {
		s += fmt.Sprintf(", %d served stale", st.Stale)
	}
	if st.Hedges > 0 {
		s += fmt.Sprintf(", %d hedged (%d won)", st.Hedges, st.HedgeWins)
	}
	if st.BreakerFastFails > 0 {
		s += fmt.Sprintf(", %d breaker fast-fails", st.BreakerFastFails)
	}
	if st.PlanWall > 0 {
		if st.PlanCached {
			s += fmt.Sprintf(", plan cached (%s)", st.PlanWall.Round(10*time.Microsecond))
		} else {
			s += fmt.Sprintf(", planned in %s", st.PlanWall.Round(10*time.Microsecond))
		}
	}
	if st.Degraded {
		s += fmt.Sprintf(", DEGRADED (%d pages unreachable: %s)",
			len(st.FailedPages), strings.Join(st.FailedPages, ", "))
	}
	return s
}

// openRemote loads the scheme and views from files and targets a real HTTP
// endpoint serving the site (e.g. `sitegen -serve :8098`). It returns the
// raw server so main can layer the health guard before opening the system.
func openRemote(base, schemeFile, viewsFile string, retries int) (site.Server, *adm.Scheme, *ulixes.Views, error) {
	if schemeFile == "" || viewsFile == "" {
		return nil, nil, nil, fmt.Errorf("-url requires -scheme-file and -views-file")
	}
	schemeSrc, err := os.ReadFile(schemeFile)
	if err != nil {
		return nil, nil, nil, err
	}
	ws, err := adm.ParseScheme(string(schemeSrc))
	if err != nil {
		return nil, nil, nil, err
	}
	viewSrc, err := os.ReadFile(viewsFile)
	if err != nil {
		return nil, nil, nil, err
	}
	views, err := view.ParseViews(ws, string(viewSrc))
	if err != nil {
		return nil, nil, nil, err
	}
	return &site.HTTPServer{Base: base, Retries: retries}, ws, views, nil
}

func open(name string, courses, profs, depts, authors int) (site.Server, *adm.Scheme, *ulixes.Views, error) {
	switch name {
	case "university":
		u, err := sitegen.GenerateUniversity(sitegen.UniversityParams{
			Courses: courses, Profs: profs, Depts: depts,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		ms, err := site.NewMemSite(u.Instance, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		return ms, u.Scheme, view.UniversityView(u.Scheme), nil
	case "bibliography":
		b, err := sitegen.GenerateBibliography(sitegen.BibliographyParams{Authors: authors})
		if err != nil {
			return nil, nil, nil, err
		}
		ms, err := site.NewMemSite(b.Instance, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		return ms, b.Scheme, view.BibliographyView(b.Scheme), nil
	default:
		return nil, nil, nil, fmt.Errorf("unknown site %q (university or bibliography)", name)
	}
}

func printRelation(rel *ulixes.Relation) {
	tuples := rel.Sorted()
	if len(tuples) == 0 {
		fmt.Println("(empty result)")
		return
	}
	names := tuples[0].Names()
	fmt.Println(strings.Join(names, " | "))
	for _, t := range tuples {
		cells := make([]string, len(names))
		for i, n := range names {
			cells[i] = t.MustGet(n).String()
		}
		fmt.Println(strings.Join(cells, " | "))
	}
	fmt.Printf("(%d tuples)\n", len(tuples))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "webq:", err)
	os.Exit(1)
}
