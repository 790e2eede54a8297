package pagecache_test

// The materialized view of §8: a page store built by NewView and filled by a
// crawl (engine.Materialize), queried by the engine through a Session per
// query (Algorithm 3), and maintained by the store's off-line passes.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ulixes/internal/adm"
	"ulixes/internal/engine"
	"ulixes/internal/faults"
	"ulixes/internal/guard"
	"ulixes/internal/nested"
	"ulixes/internal/pagecache"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
	"ulixes/internal/stats"
	"ulixes/internal/view"
)

var bg = context.Background()

// siteParts builds the paper-sized university site without materializing.
func siteParts(t *testing.T) (*sitegen.University, *site.MemSite) {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	return u, ms
}

// viewEngine is an engine answering from a materialized store.
func viewEngine(u *sitegen.University, server site.Server, store *pagecache.Cache) *engine.Engine {
	eng := engine.New(view.UniversityView(u.Scheme), server, stats.CollectInstance(u.Instance))
	eng.Exec.Cache = store
	return eng
}

// materialize crawls server into a view of the given page-schemes (all of
// them when none are named).
func materialize(t *testing.T, u *sitegen.University, server site.Server, retain ...string) (*pagecache.Cache, *engine.Engine) {
	t.Helper()
	store, err := engine.Materialize(server, u.Scheme, retain...)
	if err != nil {
		t.Fatal(err)
	}
	return store, viewEngine(u, server, store)
}

// fixture materializes the whole paper-sized university site.
func fixture(t *testing.T) (*sitegen.University, *site.MemSite, *pagecache.Cache, *engine.Engine) {
	t.Helper()
	u, ms := siteParts(t)
	store, eng := materialize(t, u, ms)
	return u, ms, store, eng
}

func profPageURL(t *testing.T, u *sitegen.University, i int) string {
	t.Helper()
	for _, tup := range u.Instance.Relation(sitegen.ProfPage).Tuples() {
		if tup.MustGet("Name").String() == sitegen.ProfName(i) {
			return tup.MustGet(adm.URLAttr).String()
		}
	}
	t.Fatalf("prof %d not found", i)
	return ""
}

// stored reports whether the store holds a page for url.
func stored(store *pagecache.Cache, url string) bool {
	_, ok := store.Snapshot().Page(url)
	return ok
}

// editProfList rewrites the professor list page on the site, keeping the
// entries keep accepts and appending extra.
func editProfList(t *testing.T, u *sitegen.University, ms *site.MemSite, keep func(url string) bool, extra ...nested.Tuple) {
	t.Helper()
	listTup, _ := u.Instance.Page(sitegen.ProfListPage, sitegen.UnivProfListURL)
	lv, _ := listTup.Get("ProfList")
	var list nested.ListValue
	for _, e := range lv.(nested.ListValue) {
		if keep(e.MustGet("ToProf").String()) {
			list = append(list, e)
		}
	}
	list = append(list, extra...)
	if err := ms.UpdatePage(sitegen.ProfListPage, listTup.With("ProfList", list)); err != nil {
		t.Fatal(err)
	}
}

const fullProfs = "SELECT p.PName, p.Email FROM Professor p WHERE p.Rank = 'Full'"

func TestMaterializeStoresWholesite(t *testing.T) {
	u, _, store, _ := fixture(t)
	if store.Len() != u.Instance.TotalPages() {
		t.Errorf("store holds %d pages, want %d", store.Len(), u.Instance.TotalPages())
	}
	if got := store.Maintenance().Downloads; got != u.Instance.TotalPages() {
		t.Errorf("initial downloads = %d", got)
	}
	p, ok := store.Snapshot().Page(sitegen.UnivProfListURL)
	if !ok || p.Scheme != sitegen.ProfListPage || p.LastModified.IsZero() {
		t.Errorf("stored page = %+v %v", p, ok)
	}
}

// TestMaterializeSkipsDanglingLink: a page removed from the site while a
// link to it remains is not stored, and the crawl goes on; a missing entry
// point still fails it.
func TestMaterializeSkipsDanglingLink(t *testing.T) {
	u, ms := siteParts(t)
	for _, url := range ms.URLs() {
		if scheme, _ := ms.SchemeOf(url); scheme == sitegen.CoursePage {
			ms.RemovePage(url)
			break
		}
	}
	store, err := engine.Materialize(ms, u.Scheme)
	if err != nil {
		t.Fatalf("materialization over a dangling link: %v", err)
	}
	if got, want := store.Len(), u.Instance.TotalPages()-1; got != want {
		t.Errorf("store holds %d pages, want %d", got, want)
	}
	ms.RemovePage(sitegen.UnivProfListURL)
	if _, err := engine.Materialize(ms, u.Scheme); !errors.Is(err, site.ErrNotFound) {
		t.Errorf("materialization from a missing entry point: err = %v, want not found", err)
	}
}

func TestQueryOnFreshViewUsesOnlyLightConnections(t *testing.T) {
	_, ms, _, eng := fixture(t)
	ms.Counters().Reset()
	ans, err := eng.Query(fullProfs)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Exec.Pages != 0 {
		t.Errorf("no page changed, downloads = %d", ans.Exec.Pages)
	}
	// §8: the number of light connections is C(E), the plan's estimated
	// page-access cost.
	if lc := ans.Exec.LightConnections; lc == 0 || float64(lc) > ans.Plan.Cost+1 {
		t.Errorf("light connections = %d, want C(E) = %v", lc, ans.Plan.Cost)
	}
	// The site itself saw only HEADs, no GETs.
	if ms.Counters().Gets() != 0 {
		t.Errorf("site saw %d downloads", ms.Counters().Gets())
	}
	if ms.Counters().Heads() != ans.Exec.LightConnections {
		t.Errorf("site heads = %d, engine counted %d", ms.Counters().Heads(), ans.Exec.LightConnections)
	}
}

func TestQueryAnswerMatchesVirtual(t *testing.T) {
	u, _, _, eng := fixture(t)
	ans, err := eng.Query("SELECT p.PName, p.Rank FROM Professor p WHERE p.Rank = 'Full'")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range u.RankOf {
		if r == "Full" {
			want++
		}
	}
	if ans.Result.Len() != want {
		t.Errorf("answer size = %d, want %d", ans.Result.Len(), want)
	}
}

func TestUpdateDetectedAndApplied(t *testing.T) {
	u, ms, _, eng := fixture(t)
	url := profPageURL(t, u, 0)
	tup, _ := u.Instance.Page(sitegen.ProfPage, url)
	if err := ms.UpdatePage(sitegen.ProfPage, tup.With("Rank", nested.TextValue("Emeritus"))); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT p.PName, p.Rank FROM Professor p WHERE p.Rank = 'Emeritus'"
	ans, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Result.Len() != 1 {
		t.Errorf("updated professor not found: %d tuples", ans.Result.Len())
	}
	if ans.Exec.Pages != 1 || ans.Exec.Updates != 1 {
		t.Errorf("downloads = %d, updates = %d, want 1 and 1 (only the changed page)", ans.Exec.Pages, ans.Exec.Updates)
	}
	// Second query: the view is fresh again — zero downloads.
	ans2, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if ans2.Exec.Pages != 0 {
		t.Errorf("second query downloads = %d, want 0", ans2.Exec.Pages)
	}
}

func TestInsertedPageDiscoveredViaNewLink(t *testing.T) {
	u, ms, store, eng := fixture(t)
	// Insert a new professor page and link it from the professor list: the
	// next query navigating the list must pick both up.
	newURL := "http://univ.example.edu/prof/999.html"
	if err := ms.UpdatePage(sitegen.ProfPage, newProf(newURL)); err != nil {
		t.Fatal(err)
	}
	editProfList(t, u, ms, func(string) bool { return true },
		nested.T("ProfName", nested.TextValue("Prof. 999"), "ToProf", nested.LinkValue(newURL)))
	ans, err := eng.Query("SELECT p.PName, p.Email FROM Professor p WHERE p.PName = 'Prof. 999'")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Result.Len() != 1 {
		t.Fatalf("new professor not found (%d tuples)", ans.Result.Len())
	}
	// Two downloads: the updated list page and the brand-new prof page.
	if ans.Exec.Pages != 2 {
		t.Errorf("downloads = %d, want 2", ans.Exec.Pages)
	}
	if !stored(store, newURL) {
		t.Error("new page should now be materialized")
	}
}

func newProf(url string) nested.Tuple {
	return nested.T(
		adm.URLAttr, nested.LinkValue(url),
		"Name", nested.TextValue("Prof. 999"),
		"Rank", nested.TextValue("Full"),
		"Email", nested.TextValue("p999@univ.example.edu"),
		"DName", nested.TextValue(sitegen.DeptName(0)),
		"ToDept", nested.LinkValue("http://univ.example.edu/dept/0.html"),
		"CourseList", nested.ListValue{},
	)
}

func TestDeletedPageQueuedAndProcessed(t *testing.T) {
	u, ms, store, eng := fixture(t)
	// Remove a professor page AND its list entry: the updated list page
	// flags the old link missing; the page is not consulted during the
	// query; ProcessMissing later removes it from the view.
	victim := profPageURL(t, u, 1)
	ms.RemovePage(victim)
	editProfList(t, u, ms, func(url string) bool { return url != victim })
	ans, err := eng.Query("SELECT p.PName, p.Email FROM Professor p")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Result.Len() != u.Params.Profs-1 {
		t.Errorf("answer size = %d, want %d", ans.Result.Len(), u.Params.Profs-1)
	}
	if got := store.MissingQueue(); len(got) != 1 || got[0] != victim {
		t.Errorf("missing queue = %v", got)
	}
	if !stored(store, victim) {
		t.Error("victim should still be materialized before ProcessMissing")
	}
	deleted, err := store.ProcessMissing(bg)
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 1 || stored(store, victim) {
		t.Errorf("ProcessMissing deleted %d, victim stored %v; want 1 and gone", deleted, stored(store, victim))
	}
	if len(store.MissingQueue()) != 0 {
		t.Error("queue should be drained")
	}
}

// TestProcessMissingKeepsLivePages: a link that disappeared from its list
// is queued, but the page is still on the site (another page may link to
// it), so the off-line pass keeps it.
func TestProcessMissingKeepsLivePages(t *testing.T) {
	u, ms, store, eng := fixture(t)
	live := profPageURL(t, u, 2)
	editProfList(t, u, ms, func(url string) bool { return url != live })
	if _, err := eng.Query(fullProfs); err != nil {
		t.Fatal(err)
	}
	if got := store.MissingQueue(); len(got) != 1 || got[0] != live {
		t.Fatalf("missing queue = %v", got)
	}
	deleted, err := store.ProcessMissing(bg)
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 0 || !stored(store, live) {
		t.Error("live page must not be deleted")
	}
}

// headBlocker holds every HEAD of one URL until released, so a test can
// keep a probe of that URL in flight.
type headBlocker struct {
	*site.MemSite
	url     string
	blocked chan struct{}
	release chan struct{}
}

func (h *headBlocker) Head(url string) (site.Meta, error) {
	if url == h.url {
		h.blocked <- struct{}{}
		<-h.release
	}
	return h.MemSite.Head(url) //lint:allow fetchgate test double forwarding to the wrapped site
}

// TestProcessMissingProbesOutsideLock: while the off-line pass waits on a
// queued URL's HEAD, an access of another URL runs to completion instead of
// stalling behind the store lock.
func TestProcessMissingProbesOutsideLock(t *testing.T) {
	u, ms := siteParts(t)
	queued, other := profPageURL(t, u, 1), profPageURL(t, u, 2)
	hb := &headBlocker{MemSite: ms, url: queued, blocked: make(chan struct{}, 1), release: make(chan struct{})}
	store, eng := materialize(t, u, hb)
	editProfList(t, u, ms, func(url string) bool { return url != queued })
	if _, err := eng.Query("SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := store.ProcessMissing(bg)
		done <- err
	}()
	<-hb.blocked
	checked := make(chan error, 1)
	go func() {
		_, err := store.Access(bg, sitegen.ProfPage, other)
		checked <- err
	}()
	select {
	case err := <-checked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(hb.release)
		t.Fatal("an access of another URL stalled behind ProcessMissing's HEAD")
	}
	close(hb.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(store.MissingQueue()) != 0 {
		t.Error("queue should be drained")
	}
}

func TestEntryPointDeletedFails(t *testing.T) {
	_, ms, _, eng := fixture(t)
	ms.RemovePage(sitegen.UnivProfListURL)
	if _, err := eng.Query("SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'"); err == nil {
		t.Error("query via deleted entry point should fail")
	}
}

// TestStatusLifecycle: Algorithm 3's flags last one evaluation. A query
// that re-downloads the changed list page flags its new link and downloads
// that page without a light connection; the next query starts unflagged
// and verifies the same page with one.
func TestStatusLifecycle(t *testing.T) {
	u, ms, _, eng := fixture(t)
	relinked := profPageURL(t, u, 3)
	// Drop prof 3 from the list and let a query see it.
	editProfList(t, u, ms, func(url string) bool { return url != relinked })
	const q = fullProfs
	if _, err := eng.Query(q); err != nil {
		t.Fatal(err)
	}
	// Restore it: to the view the link is new.
	editProfList(t, u, ms, func(string) bool { return true })
	ans, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// 1 light connection for the list, re-downloaded; the new link a
	// download without one; every other professor one light connection.
	if ans.Exec.Pages != 2 || ans.Exec.LightConnections != u.Params.Profs {
		t.Errorf("downloads %d, light connections %d; want 2 and %d", ans.Exec.Pages, ans.Exec.LightConnections, u.Params.Profs)
	}
	ans, err = eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Exec.Pages != 0 || ans.Exec.LightConnections != u.Params.Profs+1 {
		t.Errorf("next query: downloads %d, light connections %d; want 0 and %d", ans.Exec.Pages, ans.Exec.LightConnections, u.Params.Profs+1)
	}
}

// TestOnlyViewsRunAlgorithm3: Algorithm 3 is a property of a store built
// as a view, not of its TTL. A store New builds with DefaultTTL 0 (ulixesd
// -ttl 0) revalidates every access as a view does, but a link that
// disappeared from a re-downloaded page is not flagged: another path of
// the same query still reaches the live page, and nothing is queued in
// CheckMissing. A view drops that page from the query and queues it.
func TestOnlyViewsRunAlgorithm3(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mk     func(site.Server, *adm.Scheme) *pagecache.Cache
		pages  int
		queued int
	}{
		{"ttl0", func(s site.Server, ws *adm.Scheme) *pagecache.Cache {
			return pagecache.New(s, ws, pagecache.Config{DefaultTTL: 0})
		}, 1, 0},
		{"view", func(s site.Server, ws *adm.Scheme) *pagecache.Cache {
			return pagecache.NewView(s, ws, pagecache.Config{})
		}, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u, ms := siteParts(t)
			store := tc.mk(ms, u.Scheme)
			live := profPageURL(t, u, 2)
			warm := store.NewSession(pagecache.SessionOptions{})
			if _, err := warm.FetchCtx(bg, sitegen.ProfListPage, sitegen.UnivProfListURL); err != nil {
				t.Fatal(err)
			}
			if _, err := warm.FetchCtx(bg, sitegen.ProfPage, live); err != nil {
				t.Fatal(err)
			}
			editProfList(t, u, ms, func(url string) bool { return url != live })
			sess := store.NewSession(pagecache.SessionOptions{})
			if _, err := sess.FetchCtx(bg, sitegen.ProfListPage, sitegen.UnivProfListURL); err != nil {
				t.Fatal(err)
			}
			got, err := sess.FetchAllCtx(bg, sitegen.ProfPage, []string{live})
			if err != nil || len(got) != tc.pages {
				t.Errorf("live page after its link went: %d pages, %v; want %d", len(got), err, tc.pages)
			}
			if q := store.MissingQueue(); len(q) != tc.queued {
				t.Errorf("CheckMissing queue %v, want %d URLs", q, tc.queued)
			}
		})
	}
}

// TestTTLZeroStoreReportsDanglingLinks: on a store New builds with
// DefaultTTL 0, a page the site no longer has fails a strict query and is
// listed in a degraded query's FailedPages; only a view drops it silently.
func TestTTLZeroStoreReportsDanglingLinks(t *testing.T) {
	u, ms := siteParts(t)
	store := pagecache.New(ms, u.Scheme, pagecache.Config{DefaultTTL: 0})
	eng := viewEngine(u, ms, store)
	const all = "SELECT p.PName, p.Email FROM Professor p"
	if _, err := eng.Query(all); err != nil {
		t.Fatal(err)
	}
	victim := profPageURL(t, u, 1)
	ms.RemovePage(victim)
	if _, err := eng.Query(all); !errors.Is(err, site.ErrNotFound) {
		t.Errorf("strict query over a dangling link: %v, want ErrNotFound", err)
	}
	eng.Exec.Degraded = true
	ans, err := eng.Query(all)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Exec.Degraded || len(ans.Exec.FailedPages) != 1 || ans.Exec.FailedPages[0] != victim {
		t.Errorf("degraded query: degraded %v, failed %v; want [%s]", ans.Exec.Degraded, ans.Exec.FailedPages, victim)
	}
	if ans.Result.Len() != u.Params.Profs-1 {
		t.Errorf("degraded answer has %d rows, want %d", ans.Result.Len(), u.Params.Profs-1)
	}
	if q := store.MissingQueue(); len(q) != 0 {
		t.Errorf("CheckMissing queue %v on a TTL-0 store, want none", q)
	}
}

func TestCheckedPagesNotRecheckedWithinQuery(t *testing.T) {
	_, ms, store, eng := fixture(t)
	ms.Counters().Reset()
	ans, err := eng.Query(fullProfs)
	if err != nil {
		t.Fatal(err)
	}
	// Each involved page is checked once: one light connection per access.
	if heads := ms.Counters().Heads(); heads != ans.Exec.Accesses || heads > store.Len() {
		t.Errorf("heads = %d, accesses = %d, pages = %d", heads, ans.Exec.Accesses, store.Len())
	}
}

// TestFollowPagesSkipsCheckedButGone: a page the query already resolved is
// pinned for the rest of the query, even when the store drops it meanwhile:
// it is not checked again.
func TestFollowPagesSkipsCheckedButGone(t *testing.T) {
	u, ms, store, _ := fixture(t)
	victim := profPageURL(t, u, 5)
	sess := store.NewSession(pagecache.SessionOptions{})
	if _, err := sess.FetchCtx(bg, sitegen.ProfPage, victim); err != nil {
		t.Fatal(err)
	}
	store.RemoveURL(victim)
	heads := ms.Counters().Heads()
	tuples, err := sess.FetchAllCtx(bg, sitegen.ProfPage, []string{victim})
	if err != nil || len(tuples) != 1 {
		t.Fatalf("pinned page: %v %v", tuples, err)
	}
	if ms.Counters().Heads() != heads || sess.Stats().Accesses != 1 {
		t.Error("a checked page must not be re-checked")
	}
}

// TestURLCheckNewStatusDownloadsDirectly: a link that appears in a
// re-downloaded page is downloaded without a light connection (Function 2,
// lines 1-2), and one whose page does not exist is left out of the answer.
func TestURLCheckNewStatusDownloadsDirectly(t *testing.T) {
	u, ms, store, _ := fixture(t)
	linked := profPageURL(t, u, 6)
	ghost := "http://univ.example.edu/prof/404.html"
	editProfList(t, u, ms, func(url string) bool { return url != linked })
	sess := store.NewSession(pagecache.SessionOptions{})
	if _, err := sess.FetchCtx(bg, sitegen.ProfListPage, sitegen.UnivProfListURL); err != nil {
		t.Fatal(err)
	}
	editProfList(t, u, ms, func(string) bool { return true },
		nested.T("ProfName", nested.TextValue("Prof. 404"), "ToProf", nested.LinkValue(ghost)))
	sess = store.NewSession(pagecache.SessionOptions{})
	if _, err := sess.FetchCtx(bg, sitegen.ProfListPage, sitegen.UnivProfListURL); err != nil {
		t.Fatal(err)
	}
	heads := ms.Counters().Heads()
	tuples, err := sess.FetchAllCtx(bg, sitegen.ProfPage, []string{linked, ghost})
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 || tuples[0].MustGet(adm.URLAttr).String() != linked {
		t.Fatalf("batch = %v, want the linked page alone", tuples)
	}
	if ms.Counters().Heads() != heads {
		t.Error("new links are downloaded without a light connection")
	}
}

// downServer wraps a server and makes one URL unreachable (both GET and
// HEAD fail with a non-404 error) — a source host that is down, not a page
// that was deleted.
type downServer struct {
	site.Server
	mu   sync.Mutex
	down string
}

var errHostDown = errors.New("connection refused (injected)")

func (s *downServer) setDown(url string) {
	s.mu.Lock()
	s.down = url
	s.mu.Unlock()
}

func (s *downServer) unreachable(url string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return url == s.down
}

func (s *downServer) Get(url string) (site.Page, error) {
	if s.unreachable(url) {
		return site.Page{}, errHostDown
	}
	return s.Server.Get(url) //lint:allow fetchgate the fault wrapper sits under the counted fetcher
}

func (s *downServer) Head(url string) (site.Meta, error) {
	if s.unreachable(url) {
		return site.Meta{}, errHostDown
	}
	return s.Server.Head(url) //lint:allow fetchgate the fault wrapper sits under the counted fetcher
}

func TestRefreshFullView(t *testing.T) {
	u, ms, store, _ := fixture(t)
	url0 := profPageURL(t, u, 0)
	tup, _ := u.Instance.Page(sitegen.ProfPage, url0)
	if err := ms.UpdatePage(sitegen.ProfPage, tup.With("Email", nested.TextValue("changed@univ.example.edu"))); err != nil {
		t.Fatal(err)
	}
	ms.Touch(sitegen.UnivHomeURL)
	victim := profPageURL(t, u, 3)
	ms.RemovePage(victim)

	updated, deleted, stale := store.Refresh(bg)
	if updated != 2 || deleted != 1 || len(stale) != 0 {
		t.Errorf("refresh updated %d, deleted %d, stale %v; want 2, 1, none", updated, deleted, stale)
	}
	if stored(store, victim) {
		t.Error("refresh should remove deleted pages")
	}
}

// TestRefreshToleratesUnreachablePages: a full-view refresh over a source
// that is partially down keeps the stale rows (the view stays answerable),
// reports their URLs, and a later refresh picks them up once the source
// heals.
func TestRefreshToleratesUnreachablePages(t *testing.T) {
	u, ms := siteParts(t)
	srv := &downServer{Server: ms}
	store, _ := materialize(t, u, srv)
	victim := profPageURL(t, u, 2)
	ms.RemovePage(profPageURL(t, u, 5))
	srv.setDown(victim)

	_, deleted, stale := store.Refresh(bg)
	if deleted != 1 {
		t.Errorf("deleted = %d, want 1 (the removed page is a clean 404)", deleted)
	}
	if len(stale) != 1 || stale[0] != victim {
		t.Errorf("stale = %v, want [%s]", stale, victim)
	}
	if !stored(store, victim) {
		t.Error("unreachable page must keep its stale row")
	}

	srv.setDown("")
	if _, deleted, stale = store.Refresh(bg); len(stale) != 0 || deleted != 0 {
		t.Errorf("after heal: stale %v, deleted %d; want none", stale, deleted)
	}
	if !stored(store, victim) {
		t.Error("healed page should still be materialized")
	}
}

func TestLazyMaintenanceCostScalesWithUpdates(t *testing.T) {
	u, ms, _, eng := fixture(t)
	for _, n := range []int{0, 3, 7} {
		for i := 0; i < n; i++ {
			tup, _ := u.Instance.Page(sitegen.ProfPage, profPageURL(t, u, i))
			if err := ms.UpdatePage(sitegen.ProfPage, tup); err != nil { // re-render bumps Last-Modified
				t.Fatal(err)
			}
		}
		ans, err := eng.Query(fullProfs)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Exec.Pages != n {
			t.Errorf("downloads = %d after %d updates, want one per updated page", ans.Exec.Pages, n)
		}
	}
}

// tripBreaker materializes the site behind a guard over a chaos server and
// trips the breaker of its host with two real failures: the crawl leaves
// the EWMA near zero, so with Alpha = 0.5 the error rate is 0.5 after one
// failure and 0.75 after two, and a 0.6 threshold needs exactly two.
func tripBreaker(t *testing.T, clock site.Clock) (*sitegen.University, *faults.Server, *guard.Guard, *pagecache.Cache) {
	t.Helper()
	u, ms := siteParts(t)
	chaos := faults.New(ms, 7)
	g := guard.New(chaos, guard.Config{Clock: clock, ErrorThreshold: 0.6, OpenFor: 30 * time.Second})
	store, _ := materialize(t, u, g)
	chaos.SetRules(faults.Rule{Kind: faults.Transient, Rate: 1})
	for i := 0; i < 2; i++ {
		if _, err := store.RefreshURL(bg, sitegen.UnivProfListURL, ""); err == nil {
			t.Fatalf("check %d: expected a transient failure", i)
		}
	}
	if got := g.StateOf(guard.HostOf(sitegen.UnivProfListURL)); got != guard.Open {
		t.Fatalf("breaker state %v, want Open", got)
	}
	return u, chaos, g, store
}

// TestMaterializedStaleServeWhenBreakerOpen: once the breaker opens, an
// access is answered from the stored copy without confirmation (a stale
// serve) instead of failing, and verified checks resume after the site
// heals.
func TestMaterializedStaleServeWhenBreakerOpen(t *testing.T) {
	var now struct {
		mu sync.Mutex
		t  time.Time
	}
	now.t = time.Date(2000, time.January, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time {
		now.mu.Lock()
		defer now.mu.Unlock()
		return now.t
	}
	_, chaos, _, store := tripBreaker(t, clock)
	before := store.Maintenance()
	want, _ := store.Snapshot().Page(sitegen.UnivProfListURL)

	tup, err := store.Access(bg, sitegen.ProfListPage, sitegen.UnivProfListURL)
	if err != nil || !tup.Equal(want.Tuple) {
		t.Fatalf("stale access: err=%v, same tuple %v", err, tup.Equal(want.Tuple))
	}
	m := store.Maintenance()
	if m.StaleServes-before.StaleServes != 1 || m.LightConnections != before.LightConnections || m.Downloads != before.Downloads {
		t.Fatalf("maintenance %+v after %+v, want one stale serve and no traffic", m, before)
	}

	// The site heals and the open window lapses: the half-open probe
	// verifies the page with a real light connection again.
	chaos.SetRules()
	now.mu.Lock()
	now.t = now.t.Add(31 * time.Second)
	now.mu.Unlock()
	if _, err := store.Access(bg, sitegen.ProfListPage, sitegen.UnivProfListURL); err != nil {
		t.Fatal(err)
	}
	after := store.Maintenance()
	if after.StaleServes != m.StaleServes || after.LightConnections != m.LightConnections+1 || after.Downloads != m.Downloads {
		t.Fatalf("post-recovery maintenance %+v after %+v, want one light connection", after, m)
	}
}

func TestPartialMaterializationScope(t *testing.T) {
	u, ms := siteParts(t)
	store, _ := materialize(t, u, ms, sitegen.ProfListPage, sitegen.ProfPage)
	if store.Len() != u.Params.Profs+1 {
		t.Errorf("stored pages = %d, want %d", store.Len(), u.Params.Profs+1)
	}
	if !store.Retained(sitegen.ProfPage) || store.Retained(sitegen.CoursePage) {
		t.Error("retained schemes wrong")
	}
	if !stored(store, sitegen.UnivProfListURL) || stored(store, sitegen.UnivSessionListURL) {
		t.Error("the professor list, and not the session list, should be stored")
	}
}

func TestPartialQueryInPortionUsesLightConnections(t *testing.T) {
	u, ms := siteParts(t)
	_, eng := materialize(t, u, ms, sitegen.ProfListPage, sitegen.ProfPage)
	ans, err := eng.Query(fullProfs)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Exec.Pages != 0 || ans.Exec.LightConnections == 0 {
		t.Errorf("in the portion: %d downloads, %d light connections; want none and some", ans.Exec.Pages, ans.Exec.LightConnections)
	}
}

func TestPartialQueryOutsidePortionFetchesLive(t *testing.T) {
	u, ms := siteParts(t)
	store, eng := materialize(t, u, ms, sitegen.ProfListPage, sitegen.ProfPage)
	const q = "SELECT c.CName FROM Course c WHERE c.Session = 'Fall'"
	ans, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	fall := 0
	for _, s := range u.SessionOf {
		if u.Params.Sessions[s] == "Fall" {
			fall++
		}
	}
	if ans.Result.Len() != fall {
		t.Errorf("fall courses = %d, want %d", ans.Result.Len(), fall)
	}
	if ans.Exec.Pages == 0 || ans.Exec.LightConnections != 0 {
		t.Errorf("outside the portion: %d downloads, %d light connections; want live downloads only", ans.Exec.Pages, ans.Exec.LightConnections)
	}
	if stored(store, sitegen.UnivSessionListURL) {
		t.Error("live pages must not enter the store")
	}
	// The same query costs the same downloads again: the portion does not
	// grow (no maintenance obligation outside it).
	ans2, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if ans2.Exec.Pages != ans.Exec.Pages {
		t.Errorf("live downloads should repeat: %d vs %d", ans2.Exec.Pages, ans.Exec.Pages)
	}
}

func TestPartialMixedQuery(t *testing.T) {
	u, ms := siteParts(t)
	_, eng := materialize(t, u, ms, sitegen.ProfListPage, sitegen.ProfPage)
	// Professors (materialized) joined with courses (live).
	ans, err := eng.Query(`SELECT p.PName, c.CName
		FROM Course c, CourseInstructor ci, Professor p
		WHERE c.CName = ci.CName AND ci.PName = p.PName AND c.Type = 'Graduate'`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Result.Len() == 0 {
		t.Error("mixed query should produce results")
	}
}

func TestPartialDeletedLivePage(t *testing.T) {
	u, ms := siteParts(t)
	_, eng := materialize(t, u, ms, sitegen.ProfListPage, sitegen.ProfPage)
	// Delete a course page: live fetches simply skip it (the link dangles).
	for _, url := range ms.URLs() {
		if scheme, _ := ms.SchemeOf(url); scheme == sitegen.CoursePage {
			ms.RemovePage(url)
			break
		}
	}
	if _, err := eng.Query("SELECT c.CName FROM Course c"); err != nil {
		t.Fatalf("dangling live page should be skipped, not fail: %v", err)
	}
}

func TestMaterializeSchemesUnknownScheme(t *testing.T) {
	u, ms := siteParts(t)
	if _, err := engine.Materialize(ms, u.Scheme, "Ghost"); err == nil {
		t.Error("unknown scheme should fail")
	}
}

// TestRefreshURLRewrapsOnlyChangedPage pins the targeted-refresh cost model:
// a push event for one changed page costs exactly one light connection plus
// one download, and touches no other row.
func TestRefreshURLRewrapsOnlyChangedPage(t *testing.T) {
	u, ms, store, _ := fixture(t)
	url, otherURL := profPageURL(t, u, 0), profPageURL(t, u, 1)
	otherBefore, _ := store.Snapshot().Page(otherURL)
	tup, _ := u.Instance.Page(sitegen.ProfPage, url)
	if err := ms.UpdatePage(sitegen.ProfPage, tup.With("Rank", nested.TextValue("Emeritus"))); err != nil {
		t.Fatal(err)
	}
	before := store.Maintenance()
	changed, err := store.RefreshURL(bg, url, "")
	if err != nil || !changed {
		t.Fatalf("RefreshURL of a mutated page: changed=%v err=%v", changed, err)
	}
	m := store.Maintenance()
	if m.LightConnections-before.LightConnections != 1 || m.Downloads-before.Downloads != 1 ||
		m.UpdatesApplied-before.UpdatesApplied != 1 || m.DeletionsApplied != before.DeletionsApplied {
		t.Fatalf("maintenance %+v after %+v, want exactly one check and one download", m, before)
	}
	sn := store.Snapshot()
	if p, _ := sn.Page(url); p.Tuple.MustGet("Rank").String() != "Emeritus" {
		t.Fatal("stored page is not the pushed update")
	}
	if otherAfter, _ := sn.Page(otherURL); !otherAfter.Tuple.Equal(otherBefore.Tuple) || otherAfter.LastModified != otherBefore.LastModified {
		t.Fatal("an untouched page's row was replaced")
	}

	// Refreshing an unchanged page verifies (one light connection) without
	// downloading and reports no change.
	if changed, err = store.RefreshURL(bg, url, ""); err != nil || changed {
		t.Fatalf("RefreshURL of an unchanged page: changed=%v err=%v", changed, err)
	}
	if again := store.Maintenance(); again.LightConnections != m.LightConnections+1 || again.Downloads != m.Downloads {
		t.Fatalf("maintenance after a no-op refresh %+v", again)
	}
}

// TestRefreshURLMaterializesNewPage: an Added event for a URL the store has
// never seen downloads and stores it (scheme supplied by the feed).
func TestRefreshURLMaterializesNewPage(t *testing.T) {
	_, ms, store, _ := fixture(t)
	url := "http://univ.example.edu/prof/999.html"
	if err := ms.UpdatePage(sitegen.ProfPage, newProf(url)); err != nil {
		t.Fatal(err)
	}
	changed, err := store.RefreshURL(bg, url, sitegen.ProfPage)
	if err != nil || !changed || !stored(store, url) {
		t.Fatalf("RefreshURL of a brand-new page: changed=%v err=%v stored=%v", changed, err, stored(store, url))
	}
	// Without a stored row and without a feed-supplied scheme the refresh
	// cannot proceed.
	if _, err := store.RefreshURL(bg, "http://univ.example/nowhere", ""); err == nil {
		t.Fatal("RefreshURL of an unknown URL without a scheme should fail")
	}
}

// TestRemoveURLDropsRow: a Removed event deletes the materialized row
// directly — no probe, the feed already observed the deletion.
func TestRemoveURLDropsRow(t *testing.T) {
	u, ms, store, _ := fixture(t)
	url := profPageURL(t, u, 2)
	heads := ms.Counters().Heads()
	if !store.RemoveURL(url) || stored(store, url) {
		t.Fatal("RemoveURL left the row")
	}
	if store.RemoveURL(url) {
		t.Fatal("second RemoveURL should report false")
	}
	if ms.Counters().Heads() != heads {
		t.Fatal("RemoveURL must not touch the network")
	}
	if m := store.Maintenance(); m.DeletionsApplied != 1 {
		t.Fatalf("maintenance %+v, want one deletion", m)
	}
}

// TestRefreshURLBreakerKeepsStaleRow: with the origin's breaker open the row
// is kept and the deferral surfaces as site.ErrBreakerOpen, so feed wiring
// knows the verification did not happen.
func TestRefreshURLBreakerKeepsStaleRow(t *testing.T) {
	_, _, _, store := tripBreaker(t, site.LogicalClock())
	before, _ := store.Snapshot().Page(sitegen.UnivProfListURL)
	m := store.Maintenance()
	if _, err := store.RefreshURL(bg, sitegen.UnivProfListURL, ""); !errors.Is(err, site.ErrBreakerOpen) {
		t.Fatalf("breaker-open refresh error = %v, want ErrBreakerOpen", err)
	}
	if p, ok := store.Snapshot().Page(sitegen.UnivProfListURL); !ok || !p.Tuple.Equal(before.Tuple) {
		t.Fatal("stale row must survive a deferred refresh")
	}
	if after := store.Maintenance(); after.StaleServes != m.StaleServes+1 || after.Downloads != m.Downloads {
		t.Fatalf("maintenance %+v after %+v, want one stale serve and no downloads", after, m)
	}
}

// TestSnapshotCopiesStoreState: a snapshot holds every stored page and
// does not move with the store.
func TestSnapshotCopiesStoreState(t *testing.T) {
	u, _, store, _ := fixture(t)
	sn := store.Snapshot()
	if sn.Len() != store.Len() || sn.Len() != u.Instance.TotalPages() {
		t.Fatalf("snapshot holds %d pages, store %d, site %d", sn.Len(), store.Len(), u.Instance.TotalPages())
	}
	store.RemoveURL(sitegen.UnivProfListURL)
	if _, ok := sn.Page(sitegen.UnivProfListURL); !ok || sn.Len() != u.Instance.TotalPages() {
		t.Error("the snapshot moved with the store")
	}
}

// TestSnapshotSourceServesLocally: the snapshot answers navigations from
// stored tuples without touching the site, and errors (rather than
// silently skipping) on anything not stored — the soundness hook the
// rewriter's live fallback depends on.
func TestSnapshotSourceServesLocally(t *testing.T) {
	_, ms, store, _ := fixture(t)
	sn := store.Snapshot()
	want, _ := sn.Page(sitegen.UnivProfListURL)
	gets := ms.Counters().Gets()

	tup, err := sn.EntryPage(sitegen.ProfListPage, sitegen.UnivProfListURL)
	if err != nil || !tup.Equal(want.Tuple) {
		t.Errorf("EntryPage: err=%v, same tuple %v", err, tup.Equal(want.Tuple))
	}
	batch, err := sn.FollowPages(sitegen.ProfListPage, []string{sitegen.UnivProfListURL})
	if err != nil || len(batch) != 1 || !batch[0].Equal(want.Tuple) {
		t.Error("FollowPages returned a different tuple than the stored copy")
	}
	if got := ms.Counters().Gets(); got != gets {
		t.Errorf("snapshot reads cost %d GETs, want 0", got-gets)
	}

	if _, err := sn.EntryPage(sitegen.ProfListPage, "http://univ.example.edu/nowhere"); !errors.Is(err, pagecache.ErrNotStored) {
		t.Errorf("missing URL: err = %v, want ErrNotStored", err)
	}
	if _, err := sn.FollowPages(sitegen.ProfListPage, []string{"http://univ.example.edu/nowhere"}); !errors.Is(err, pagecache.ErrNotStored) {
		t.Errorf("missing URL in batch: err = %v, want ErrNotStored", err)
	}
	if _, err := sn.EntryPage("WrongScheme", sitegen.UnivProfListURL); !errors.Is(err, pagecache.ErrNotStored) {
		t.Errorf("scheme mismatch: err = %v, want ErrNotStored", err)
	}
}

// TestRefreshReportsStaleRowsWhenOriginUnreachable: a refresh pass against a
// hard-down origin (no breaker involved) keeps every row and reports it
// stale instead of failing the pass; a later pass against the healed origin
// comes back clean.
func TestRefreshReportsStaleRowsWhenOriginUnreachable(t *testing.T) {
	u, ms := siteParts(t)
	chaos := faults.New(ms, 11)
	store, _ := materialize(t, u, chaos)
	chaos.SetRules(faults.Rule{Kind: faults.Transient, Rate: 1})
	updated, deleted, stale := store.Refresh(bg)
	if updated != 0 || deleted != 0 || len(stale) != u.Instance.TotalPages() {
		t.Errorf("updated %d, deleted %d, %d stale; want 0, 0, every page (%d)", updated, deleted, len(stale), u.Instance.TotalPages())
	}
	if store.Len() != u.Instance.TotalPages() {
		t.Errorf("store dropped to %d pages; stale rows must be kept", store.Len())
	}
	chaos.SetRules()
	if _, _, stale = store.Refresh(bg); len(stale) != 0 {
		t.Errorf("healed refresh: stale=%v, want clean", stale)
	}
}

// TestRefreshStaleServesUnderTrippedBreaker: once the breaker is open, a
// refresh pass is answered entirely from the stored copies — stale serves,
// with no stale rows reported and no network traffic — rather than burning
// a timeout per page against a host already known to be down.
func TestRefreshStaleServesUnderTrippedBreaker(t *testing.T) {
	clock := func() time.Time { return time.Date(2000, time.January, 1, 0, 0, 0, 0, time.UTC) }
	u, _, _, store := tripBreaker(t, clock)
	before := store.Maintenance()
	updated, deleted, stale := store.Refresh(bg)
	if updated != 0 || deleted != 0 || len(stale) != 0 {
		t.Errorf("updated=%d deleted=%d stale=%v, want an all-stale-served pass", updated, deleted, stale)
	}
	m := store.Maintenance()
	if m.StaleServes-before.StaleServes != u.Instance.TotalPages() {
		t.Errorf("stale serves = %d, want one per page (%d)", m.StaleServes-before.StaleServes, u.Instance.TotalPages())
	}
	if m.LightConnections != before.LightConnections || m.Downloads != before.Downloads {
		t.Errorf("maintenance %+v after %+v, want no network traffic under an open breaker", m, before)
	}
	if store.Len() != u.Instance.TotalPages() {
		t.Errorf("store dropped to %d pages", store.Len())
	}
}

// TestConcurrentMaterializedQueriesAreExact: concurrent queries over one
// materialized view each report exactly their own traffic — C(E) light
// connections, a ledger that reconciles — and the right rows, however their
// checks interleave.
func TestConcurrentMaterializedQueriesAreExact(t *testing.T) {
	u, ms, _, eng := fixture(t)
	want, err := eng.Query(fullProfs)
	if err != nil {
		t.Fatal(err)
	}
	ce := want.Exec.LightConnections
	if ce != int(want.Plan.Cost) {
		t.Fatalf("a lone query made %d light connections, want C(E) = %v", ce, want.Plan.Cost)
	}
	const clients, rounds = 4, 10
	for r := 0; r < rounds; r++ {
		// Touch a page now and then: its re-download must be reported by
		// exactly the queries that made or joined it.
		if r%3 == 1 {
			ms.Touch(profPageURL(t, u, r))
		}
		answers := make([]*engine.Answer, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for i := range answers {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				answers[i], errs[i] = eng.Query(fullProfs)
			}(i)
		}
		wg.Wait()
		for i, a := range answers {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			st := a.Exec
			if st.Accesses != ce || st.Accesses != st.Pages+st.CacheHits+st.Revalidations+st.Stale {
				t.Errorf("round %d client %d: accesses %d = %d pages + %d hits + %d revalidations + %d stale, want C(E) = %d",
					r, i, st.Accesses, st.Pages, st.CacheHits, st.Revalidations, st.Stale, ce)
			}
			if st.LightConnections != ce {
				t.Errorf("round %d client %d: %d light connections, want C(E) = %d", r, i, st.LightConnections, ce)
			}
			if a.Result.String() != want.Result.String() {
				t.Errorf("round %d client %d: wrong rows %s", r, i, a.Result)
			}
		}
	}
}
