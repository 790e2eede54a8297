package optimizer_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ulixes/internal/cq"
	"ulixes/internal/exp"
	"ulixes/internal/optimizer"
	"ulixes/internal/plancache"
	"ulixes/internal/race"
	"ulixes/internal/sitegen"
	"ulixes/internal/stats"
	"ulixes/internal/view"
)

var update = flag.Bool("update", false, "regenerate testdata/plans.golden")

// goldenCase is one (view, options, query) triple of the plan-identity
// corpus.
type goldenCase struct {
	name  string
	site  string // "univ" or "bib"
	opts  optimizer.Options
	query string
}

// chainAtom is one relation of a join chain: its alias, two attributes
// that can carry a constant or be projected, and the condition joining it
// to the previous atom of the chain.
type chainAtom struct {
	rel, alias string
	attrs      [2]string
	consts     [2]string
	joinPrev   string
}

var univChain = []chainAtom{
	{rel: "Dept", alias: "d", attrs: [2]string{"DName", "Address"}, consts: [2]string{"Computer Science", "1 Main St"}},
	{rel: "ProfDept", alias: "pd", attrs: [2]string{"DName", "PName"}, consts: [2]string{"Computer Science", "Prof. 003"}, joinPrev: "d.DName = pd.DName"},
	{rel: "Professor", alias: "p", attrs: [2]string{"Rank", "PName"}, consts: [2]string{"Full", "Prof. 003"}, joinPrev: "pd.PName = p.PName"},
	{rel: "CourseInstructor", alias: "ci", attrs: [2]string{"PName", "CName"}, consts: [2]string{"Prof. 003", "Course 007"}, joinPrev: "p.PName = ci.PName"},
	{rel: "Course", alias: "c", attrs: [2]string{"Session", "Type"}, consts: [2]string{"Fall", "Graduate"}, joinPrev: "ci.CName = c.CName"},
}

// bibChain ends in a PaperAuthor self-join (co-authors), so Rule 4 merges
// and the alias normalisation of the dedup key are exercised on a relation
// with two default navigations.
var bibChain = []chainAtom{
	{rel: "Conference", alias: "cf", attrs: [2]string{"ConfName", "Area"}, consts: [2]string{"VLDB", "Databases"}},
	{rel: "Edition", alias: "e", attrs: [2]string{"Year", "Editors"}, consts: [2]string{"1996", "Editor 1"}, joinPrev: "cf.ConfName = e.ConfName"},
	{rel: "PaperAuthor", alias: "pa", attrs: [2]string{"AuthorName", "PTitle"}, consts: [2]string{"Author 00007", "Paper 1"}, joinPrev: "e.ConfName = pa.ConfName AND e.Year = pa.Year"},
	{rel: "PaperAuthor", alias: "pb", attrs: [2]string{"AuthorName", "Year"}, consts: [2]string{"Author 00011", "1997"}, joinPrev: "pa.PTitle = pb.PTitle"},
}

// chainQueries returns, for every contiguous sub-chain, the queries with
// zero, one and two constants under two projections each.
func chainQueries(site string, chain []chainAtom) []goldenCase {
	var out []goldenCase
	for lo := 0; lo < len(chain); lo++ {
		for hi := lo; hi < len(chain); hi++ {
			sub := chain[lo : hi+1]
			first, last := sub[0], sub[len(sub)-1]
			var from, where []string
			for i, a := range sub {
				from = append(from, a.rel+" "+a.alias)
				if i > 0 {
					where = append(where, a.joinPrev)
				}
			}
			// The second constant and the second projected column sit on the
			// last atom; on a single atom they use its second attribute.
			second := 0
			if len(sub) == 1 {
				second = 1
			}
			consts := []string{
				fmt.Sprintf("%s.%s = '%s'", first.alias, first.attrs[0], first.consts[0]),
				fmt.Sprintf("%s.%s = '%s'", last.alias, last.attrs[second], last.consts[second]),
			}
			projs := []string{
				fmt.Sprintf("%s.%s", first.alias, first.attrs[1]),
				fmt.Sprintf("%s.%s, %s.%s AS Other", first.alias, first.attrs[1], last.alias, last.attrs[1-second]),
			}
			for nc := 0; nc <= 2; nc++ {
				for pi, proj := range projs {
					conds := append(append([]string(nil), where...), consts[:nc]...)
					q := "SELECT " + proj + " FROM " + strings.Join(from, ", ")
					if len(conds) > 0 {
						q += " WHERE " + strings.Join(conds, " AND ")
					}
					out = append(out, goldenCase{
						name:  fmt.Sprintf("%s chain %s..%s consts=%d proj=%d", site, first.alias, last.alias, nc, pi),
						site:  site,
						query: q,
					})
				}
			}
		}
	}
	return out
}

// goldenCorpus is the deterministic corpus of TestPlanGolden. Q7 and Q8 of
// the suite are Examples 7.1 and 7.2. The narrow entries rerun the join
// shapes under small MaxPlans/BeamWidth so the cut-offs and their
// tie-breaks are pinned too.
func goldenCorpus() []goldenCase {
	var out []goldenCase
	narrow := optimizer.Options{MaxPlans: 96, BeamWidth: 12}
	for _, q := range exp.QuerySuite {
		out = append(out, goldenCase{name: "suite " + q.Name, site: "univ", query: q.Query})
	}
	for _, q := range exp.QuerySuite {
		out = append(out, goldenCase{name: "narrow suite " + q.Name, site: "univ", opts: narrow, query: q.Query})
	}
	univ := chainQueries("univ", univChain)
	bib := chainQueries("bib", bibChain)
	out = append(out, univ...)
	out = append(out, bib...)
	for _, c := range append(univ, bib...) {
		if strings.Count(c.query, ",") >= 3 && strings.HasSuffix(c.name, "consts=1 proj=1") {
			c.name, c.opts = "narrow "+c.name, narrow
			out = append(out, c)
		}
	}
	return out
}

// goldenBibParams is a small bibliography: the plans depend on the
// statistics only through costs.
var goldenBibParams = sitegen.BibliographyParams{
	Authors: 200, Confs: 10, DBConfs: 3, Years: 4, PapersPerEdition: 6, AuthorsPerPaper: 2, Seed: 1998,
}

func goldenViews(t testing.TB) map[string]func(optimizer.Options) *optimizer.Optimizer {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := sitegen.GenerateBibliography(goldenBibParams)
	if err != nil {
		t.Fatal(err)
	}
	uv, us := view.UniversityView(u.Scheme), stats.CollectInstance(u.Instance)
	bv, bs := view.BibliographyView(b.Scheme), stats.CollectInstance(b.Instance)
	mk := func(v *view.Registry, st *stats.Stats) func(optimizer.Options) *optimizer.Optimizer {
		return func(o optimizer.Options) *optimizer.Optimizer {
			opt := optimizer.New(v, st)
			opt.Opts = o
			return opt
		}
	}
	return map[string]func(optimizer.Options) *optimizer.Optimizer{"univ": mk(uv, us), "bib": mk(bv, bs)}
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// goldenEntry renders one result: the counts, the best plan and cost in
// clear text, and a SHA-256 over every candidate's cost, cardinality and
// expression in order.
func goldenEntry(c goldenCase, res *optimizer.Result) string {
	h := sha256.New()
	for _, p := range res.Candidates {
		fmt.Fprintf(h, "%s\t%s\t%s\n", fmtFloat(p.Cost), fmtFloat(p.Card), p.Expr)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s\n", c.name)
	fmt.Fprintf(&sb, "query: %s\n", strings.Join(strings.Fields(c.query), " "))
	fmt.Fprintf(&sb, "considered: %d\n", res.PlansConsidered)
	fmt.Fprintf(&sb, "candidates: %d\n", len(res.Candidates))
	fmt.Fprintf(&sb, "best cost: %s card: %s\n", fmtFloat(res.Best.Cost), fmtFloat(res.Best.Card))
	fmt.Fprintf(&sb, "best plan: %s\n", res.Best.Expr)
	fmt.Fprintf(&sb, "sha256: %x\n", h.Sum(nil))
	return sb.String()
}

func runGoldenCase(t testing.TB, mk map[string]func(optimizer.Options) *optimizer.Optimizer, c goldenCase) string {
	q, err := cq.Parse(c.query)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	res, err := mk[c.site](c.opts).Optimize(q)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return goldenEntry(c, res)
}

const goldenPath = "testdata/plans.golden"

// readGolden returns the committed entries keyed by case name.
func readGolden(t testing.TB) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/optimizer -run TestPlanGolden -update)", err)
	}
	out := make(map[string]string)
	for _, block := range strings.Split(string(data), "== ")[1:] {
		name, _, _ := strings.Cut(block, "\n")
		out[name] = "== " + block
	}
	return out
}

// TestPlanGolden pins what Algorithm 1 produces — plans considered, the
// candidate list in order with costs and cardinalities, the chosen plan —
// for a fixed corpus, so a change to how the search is carried out can be
// shown to leave its outcome untouched. Regenerate with -update only when
// a change is meant to alter the plans.
func TestPlanGolden(t *testing.T) {
	mk := goldenViews(t)
	corpus := goldenCorpus()
	if *update {
		var sb strings.Builder
		for _, c := range corpus {
			sb.WriteString(runGoldenCase(t, mk, c))
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(corpus) {
		t.Errorf("golden has %d entries, corpus %d", len(want), len(corpus))
	}
	for _, c := range corpus {
		if got := runGoldenCase(t, mk, c); got != want[c.name] {
			t.Errorf("plan drift\n--- got\n%s--- want\n%s", got, want[c.name])
		}
	}
}

// TestConcurrentOptimizeMatchesGolden: one Optimizer shared by sixteen
// goroutines planning different shapes gives each the plans the golden
// records. Each call takes an arena of its own from the pool and returns
// it when done, so nothing the search mutates is shared; run under -race,
// this is the check that the pool hands an arena to one search at a time.
func TestConcurrentOptimizeMatchesGolden(t *testing.T) {
	mk := goldenViews(t)
	want := readGolden(t)
	shared := map[string]*optimizer.Optimizer{"univ": mk["univ"](optimizer.Options{}), "bib": mk["bib"](optimizer.Options{})}
	var cases []goldenCase
	for _, c := range goldenCorpus() {
		// Default options only (the Optimizer is shared), and not the very
		// widest shapes, which add time under -race but no new sharing.
		if c.opts == (optimizer.Options{}) && strings.Count(c.query, ",") <= 3 {
			cases = append(cases, c)
		}
	}
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cases); i += workers {
				c := cases[i]
				q, err := cq.Parse(c.query)
				if err != nil {
					t.Errorf("%s: %v", c.name, err)
					return
				}
				res, err := shared[c.site].Optimize(q)
				if err != nil {
					t.Errorf("%s: %v", c.name, err)
					return
				}
				if got := goldenEntry(c, res); got != want[c.name] {
					t.Errorf("plan drift under concurrency\n--- got\n%s--- want\n%s", got, want[c.name])
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRecycledArenaMatchesGolden: one arena serves the whole corpus, both
// sites and all options, forwards and then backwards, and every result is
// the golden one. A cache keyed by a node, a column or an expression's
// identity that outlived the search it was filled in would hand a later
// search another search's facts, and move its plans.
func TestRecycledArenaMatchesGolden(t *testing.T) {
	if race.Enabled {
		t.Skip("one goroutine: nothing for the race detector to check, at eight times the time")
	}
	mk := goldenViews(t)
	want := readGolden(t)
	forwards := goldenCorpus()
	backwards := slices.Clone(forwards)
	slices.Reverse(backwards)
	a := new(optimizer.Arena)
	for _, c := range append(forwards, backwards...) {
		q, err := cq.Parse(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := mk[c.site](c.opts).OptimizeIn(q, a)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := goldenEntry(c, res); got != want[c.name] {
			t.Fatalf("plan drift in a recycled arena\n--- got\n%s--- want\n%s", got, want[c.name])
		}
	}
}

// TestHeldResultOutlivesItsArena holds Example 7.2's result while the same
// arena plans 64 other shapes, then renders it: it must still be the
// golden one, so nothing it refers to was in the memory those searches
// rewound and wrote over.
func TestHeldResultOutlivesItsArena(t *testing.T) {
	if race.Enabled {
		t.Skip("one goroutine: nothing for the race detector to check, at eight times the time")
	}
	mk := goldenViews(t)
	want := readGolden(t)
	opt := mk["univ"](optimizer.Options{})
	a := new(optimizer.Arena)
	plan := func(c goldenCase) *optimizer.Result {
		q, err := cq.Parse(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := opt.OptimizeIn(q, a)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return res
	}
	held := goldenCase{name: "suite Q8 example 7.2", site: "univ", query: exp.Example72Query}
	res := plan(held)
	for _, c := range chainQueries("univ", univChain)[:64] {
		plan(c)
	}
	if got := goldenEntry(held, res); got != want[held.name] {
		t.Errorf("a held result changed while its arena planned other shapes\n--- got\n%s--- want\n%s", got, want[held.name])
	}
}

// TestCachedPlansDoNotPinTheirMemo plans 64 shapes into a plan cache and
// checks what stays on the heap afterwards: the cached results, plain
// expression trees, and not the arenas they were searched in. The heap is
// read once sync.Pool has let go of the arenas, which takes two collections,
// and what the cache retains is bounded per cached shape, which does not
// grow with how much the searches allocated. The bound is far below one
// arena: the test checks that too, against an arena that has planned
// Example 7.2.
func TestCachedPlansDoNotPinTheirMemo(t *testing.T) {
	if race.Enabled {
		t.Skip("heap accounting is inflated under the race detector")
	}
	const perShape = 96 << 10 // bytes
	mk := goldenViews(t)
	opt := mk["univ"](optimizer.Options{})
	cache := plancache.New(plancache.Config{})
	shapes := chainQueries("univ", univChain)[:64]

	var before, after runtime.MemStats
	drain := func(ms *runtime.MemStats) {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(ms)
	}
	drain(&before)
	for _, c := range shapes {
		q, err := cq.Parse(c.query)
		if err != nil {
			t.Fatal(err)
		}
		if _, cached, err := cache.Prepare(q, opt.Stats, "", opt.Optimize); err != nil || cached {
			t.Fatalf("%s: cached=%v err=%v", c.name, cached, err)
		}
	}
	drain(&after)
	runtime.KeepAlive(cache)

	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d shapes: %d KB retained by the cache (%d KB a shape), %d KB allocated while planning",
		len(shapes), retained>>10, retained/int64(len(shapes))>>10, (after.TotalAlloc-before.TotalAlloc)>>10)
	if cache.Counters().Entries != len(shapes) {
		t.Fatalf("%d entries cached, want %d", cache.Counters().Entries, len(shapes))
	}
	if retained > perShape*int64(len(shapes)) {
		t.Errorf("the cache retains %d KB for %d shapes, over %d KB a shape: results are holding on to their arenas",
			retained>>10, len(shapes), perShape>>10)
	}

	// One arena that has planned Example 7.2 outweighs the whole bound.
	q, err := cq.Parse(exp.Example72Query)
	if err != nil {
		t.Fatal(err)
	}
	drain(&before)
	a := new(optimizer.Arena)
	if _, err := opt.OptimizeIn(q, a); err != nil {
		t.Fatal(err)
	}
	drain(&after)
	arena := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(a)
	t.Logf("an arena that has planned Example 7.2 holds %d KB", arena>>10)
	if arena <= perShape*int64(len(shapes)) {
		t.Errorf("an Example 7.2 arena holds %d KB, within the %d KB bound: retaining one would go unseen", arena>>10, perShape*int64(len(shapes))>>10)
	}
}
