package matview

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ulixes/internal/adm"
	"ulixes/internal/faults"
	"ulixes/internal/guard"
	"ulixes/internal/nested"
	"ulixes/internal/pagecache"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
	"ulixes/internal/stats"
	"ulixes/internal/view"
)

// fixtureParts builds the paper-sized university site without materializing.
func fixtureParts(t *testing.T) (*sitegen.University, *site.MemSite, *Store, *Engine) {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	return u, ms, nil, nil
}

// fixture materializes the paper-sized university site and returns all the
// pieces experiments need.
func fixture(t *testing.T) (*sitegen.University, *site.MemSite, *Store, *Engine) {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	store, err := Materialize(ms, u.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(view.UniversityView(u.Scheme), store, stats.CollectInstance(u.Instance))
	return u, ms, store, eng
}

func TestMaterializeStoresWholesite(t *testing.T) {
	u, _, store, _ := fixture(t)
	if store.Len() != u.Instance.TotalPages() {
		t.Errorf("store holds %d pages, want %d", store.Len(), u.Instance.TotalPages())
	}
	c := store.Counters()
	if c.Downloads != u.Instance.TotalPages() {
		t.Errorf("initial downloads = %d", c.Downloads)
	}
	p, ok := store.Page(sitegen.UnivProfListURL)
	if !ok || p.Scheme != sitegen.ProfListPage || p.AccessDate.IsZero() {
		t.Errorf("stored page = %+v %v", p, ok)
	}
}

// TestMaterializeSkipsDanglingLink: a page removed from the site while a
// link to it remains is not stored, and the crawl goes on; a missing entry
// point still fails it.
func TestMaterializeSkipsDanglingLink(t *testing.T) {
	u, ms, _, _ := fixtureParts(t)
	for _, url := range ms.URLs() {
		if scheme, _ := ms.SchemeOf(url); scheme == sitegen.CoursePage {
			ms.RemovePage(url)
			break
		}
	}
	store, err := Materialize(ms, u.Scheme)
	if err != nil {
		t.Fatalf("materialization over a dangling link: %v", err)
	}
	if got, want := store.Len(), u.Instance.TotalPages()-1; got != want {
		t.Errorf("store holds %d pages, want %d", got, want)
	}
	ms.RemovePage(sitegen.UnivProfListURL)
	if _, err := Materialize(ms, u.Scheme); !errors.Is(err, site.ErrNotFound) {
		t.Errorf("materialization from a missing entry point: err = %v, want not found", err)
	}
}

func TestQueryOnFreshViewUsesOnlyLightConnections(t *testing.T) {
	_, ms, store, eng := fixture(t)
	store.ResetCounters()
	ms.Counters().Reset()
	ans, err := eng.Query("SELECT p.PName, p.Email FROM Professor p WHERE p.Rank = 'Full'")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Downloads != 0 {
		t.Errorf("no page changed, downloads = %d", ans.Downloads)
	}
	if ans.LightConnections == 0 {
		t.Error("evaluation should verify pages with light connections")
	}
	// §8: the number of light connections is ≈ C(E), the plan's estimated
	// page-access cost.
	if float64(ans.LightConnections) > ans.Plan.Cost+1 {
		t.Errorf("light connections = %d exceed C(E) = %v", ans.LightConnections, ans.Plan.Cost)
	}
	// The site itself saw only HEADs, no GETs.
	if ms.Counters().Gets() != 0 {
		t.Errorf("site saw %d downloads", ms.Counters().Gets())
	}
	if ms.Counters().Heads() != ans.LightConnections {
		t.Errorf("site heads = %d, engine counted %d", ms.Counters().Heads(), ans.LightConnections)
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
	u, ms, store, eng := fixture(t)
	// Change a professor's rank on the site.
	url := profPageURL(t, u, 0)
	tup, _ := u.Instance.Page(sitegen.ProfPage, url)
	tup = tup.With("Rank", nested.TextValue("Emeritus"))
	if err := ms.UpdatePage(sitegen.ProfPage, tup); err != nil {
		t.Fatal(err)
	}
	store.ResetCounters()
	ans, err := eng.Query("SELECT p.PName, p.Rank FROM Professor p WHERE p.Rank = 'Emeritus'")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Result.Len() != 1 {
		t.Errorf("updated professor not found: %d tuples", ans.Result.Len())
	}
	if ans.Downloads != 1 {
		t.Errorf("downloads = %d, want 1 (only the changed page)", ans.Downloads)
	}
	if ans.UpdatesApplied != 1 {
		t.Errorf("updates applied = %d", ans.UpdatesApplied)
	}
	// Second query: view is fresh again — zero downloads.
	ans2, err := eng.Query("SELECT p.PName, p.Rank FROM Professor p WHERE p.Rank = 'Emeritus'")
	if err != nil {
		t.Fatal(err)
	}
	if ans2.Downloads != 0 {
		t.Errorf("second query downloads = %d, want 0", ans2.Downloads)
	}
}

func profPageURL(t *testing.T, u *sitegen.University, i int) string {
	t.Helper()
	for _, tup := range u.Instance.Relation(sitegen.ProfPage).Tuples() {
		if tup.MustGet("Name").String() == sitegen.ProfName(i) {
			v, _ := tup.Get(adm.URLAttr)
			return v.String()
		}
	}
	t.Fatalf("prof %d not found", i)
	return ""
}

func TestInsertedPageDiscoveredViaNewLink(t *testing.T) {
	u, ms, store, eng := fixture(t)
	// Insert a new professor page and link it from the professor list:
	// the next query navigating the list must pick both up.
	newURL := "http://univ.example.edu/prof/999.html"
	newProf := nested.T(
		adm.URLAttr, nested.LinkValue(newURL),
		"Name", nested.TextValue("Prof. 999"),
		"Rank", nested.TextValue("Full"),
		"Email", nested.TextValue("p999@univ.example.edu"),
		"DName", nested.TextValue(sitegen.DeptName(0)),
		"ToDept", nested.LinkValue("http://univ.example.edu/dept/0.html"),
		"CourseList", nested.ListValue{},
	)
	if err := ms.UpdatePage(sitegen.ProfPage, newProf); err != nil {
		t.Fatal(err)
	}
	listTup, _ := u.Instance.Page(sitegen.ProfListPage, sitegen.UnivProfListURL)
	lv, _ := listTup.Get("ProfList")
	newList := append(append(nested.ListValue{}, lv.(nested.ListValue)...),
		nested.T("ProfName", nested.TextValue("Prof. 999"), "ToProf", nested.LinkValue(newURL)))
	if err := ms.UpdatePage(sitegen.ProfListPage, listTup.With("ProfList", newList)); err != nil {
		t.Fatal(err)
	}
	store.ResetCounters()
	ans, err := eng.Query("SELECT p.PName, p.Email FROM Professor p WHERE p.PName = 'Prof. 999'")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Result.Len() != 1 {
		t.Fatalf("new professor not found (%d tuples)", ans.Result.Len())
	}
	// Two downloads: the updated list page and the brand-new prof page.
	if ans.Downloads != 2 {
		t.Errorf("downloads = %d, want 2", ans.Downloads)
	}
	if _, ok := store.Page(newURL); !ok {
		t.Error("new page should now be materialized")
	}
}

func TestDeletedPageQueuedAndProcessed(t *testing.T) {
	u, ms, store, eng := fixture(t)
	// Remove a professor page AND its list entry: the updated list page
	// marks the old link missing; the page is not consulted during the
	// query; ProcessMissing later removes it from the view.
	victim := profPageURL(t, u, 1)
	ms.RemovePage(victim)
	listTup, _ := u.Instance.Page(sitegen.ProfListPage, sitegen.UnivProfListURL)
	lv, _ := listTup.Get("ProfList")
	var newList nested.ListValue
	for _, e := range lv.(nested.ListValue) {
		if e.MustGet("ToProf").String() != victim {
			newList = append(newList, e)
		}
	}
	if err := ms.UpdatePage(sitegen.ProfListPage, listTup.With("ProfList", newList)); err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Query("SELECT p.PName, p.Email FROM Professor p")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Result.Len() != u.Params.Profs-1 {
		t.Errorf("answer size = %d, want %d", ans.Result.Len(), u.Params.Profs-1)
	}
	// The stale URL sits in CheckMissing until the off-line pass.
	if got := store.MissingQueue(); len(got) != 1 || got[0] != victim {
		t.Errorf("missing queue = %v", got)
	}
	if _, ok := store.Page(victim); !ok {
		t.Error("victim should still be materialized before ProcessMissing")
	}
	deleted, err := store.ProcessMissing()
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 1 {
		t.Errorf("ProcessMissing deleted %d, want 1", deleted)
	}
	if _, ok := store.Page(victim); ok {
		t.Error("victim should be gone after ProcessMissing")
	}
	if len(store.MissingQueue()) != 0 {
		t.Error("queue should be drained")
	}
}

func TestProcessMissingKeepsLivePages(t *testing.T) {
	u, _, store, _ := fixture(t)
	// Queue a URL whose page still exists (e.g. linked from elsewhere).
	store.mu.Lock()
	store.missing[profPageURL(t, u, 2)] = true
	store.mu.Unlock()
	deleted, err := store.ProcessMissing()
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 0 {
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
// queued URL's HEAD, a check of another URL runs to completion instead of
// stalling behind the store lock.
func TestProcessMissingProbesOutsideLock(t *testing.T) {
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	queued, other := profPageURL(t, u, 1), profPageURL(t, u, 2)
	hb := &headBlocker{MemSite: ms, url: queued, blocked: make(chan struct{}, 1), release: make(chan struct{})}
	store, err := Materialize(hb, u.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	store.mu.Lock()
	store.missing[queued] = true
	store.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		_, err := store.ProcessMissing()
		done <- err
	}()
	<-hb.blocked
	checked := make(chan error, 1)
	go func() {
		_, _, err := store.URLCheck(other, sitegen.ProfPage)
		checked <- err
	}()
	select {
	case err := <-checked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(hb.release)
		t.Fatal("URLCheck of another URL stalled behind ProcessMissing's HEAD")
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

func TestStatusLifecycle(t *testing.T) {
	u, _, store, eng := fixture(t)
	if store.StatusOf(sitegen.UnivProfListURL) != StatusNone {
		t.Error("initial status should be none")
	}
	if _, err := eng.Query("SELECT p.PName, p.Email FROM Professor p WHERE p.Rank = 'Full'"); err != nil {
		t.Fatal(err)
	}
	if store.StatusOf(sitegen.UnivProfListURL) != StatusChecked {
		t.Error("entry point should be checked after the query")
	}
	_ = u
	// A new evaluation resets the flags.
	store.BeginEvaluation()
	if store.StatusOf(sitegen.UnivProfListURL) != StatusNone {
		t.Error("BeginEvaluation should reset flags")
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		StatusNone: "none", StatusChecked: "checked", StatusNew: "new",
		StatusMissing: "missing", Status(9): "Status(9)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}

func TestCheckedPagesNotRecheckedWithinQuery(t *testing.T) {
	_, ms, store, eng := fixture(t)
	store.ResetCounters()
	ms.Counters().Reset()
	// A query whose plan visits professor pages twice would re-check; the
	// status flags prevent duplicate light connections within one query.
	if _, err := eng.Query("SELECT p.PName, p.Email FROM Professor p WHERE p.Rank = 'Full'"); err != nil {
		t.Fatal(err)
	}
	heads := ms.Counters().Heads()
	// Each involved page checked at most once.
	if heads > store.Len() {
		t.Errorf("heads = %d exceed page count", heads)
	}
}

func TestRefreshFullView(t *testing.T) {
	u, ms, store, _ := fixture(t)
	// Update two pages and delete one (removing its list entry so the
	// instance stays consistent is unnecessary for Refresh).
	url0 := profPageURL(t, u, 0)
	tup, _ := u.Instance.Page(sitegen.ProfPage, url0)
	ms.UpdatePage(sitegen.ProfPage, tup.With("Email", nested.TextValue("changed@univ.example.edu")))
	ms.Touch(sitegen.UnivHomeURL)
	victim := profPageURL(t, u, 3)
	ms.RemovePage(victim)

	updated, deleted, stale, err := store.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if updated != 2 {
		t.Errorf("refresh updated = %d, want 2", updated)
	}
	if deleted != 1 {
		t.Errorf("refresh deleted = %d, want 1", deleted)
	}
	if len(stale) != 0 {
		t.Errorf("refresh stale = %v, want none on a healthy site", stale)
	}
	if _, ok := store.Page(victim); ok {
		t.Error("refresh should remove deleted pages")
	}
}

func TestLazyMaintenanceCostScalesWithUpdates(t *testing.T) {
	u, ms, store, eng := fixture(t)
	query := "SELECT p.PName, p.Email FROM Professor p WHERE p.Rank = 'Full'"
	// Touch an increasing number of professor pages; downloads per query
	// must track the number of touched pages involved in the plan.
	prev := -1
	for _, n := range []int{0, 3, 7} {
		for i := 0; i < n; i++ {
			tup, _ := u.Instance.Page(sitegen.ProfPage, profPageURL(t, u, i))
			ms.UpdatePage(sitegen.ProfPage, tup) // re-render bumps Last-Modified
		}
		store.ResetCounters()
		ans, err := eng.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Downloads < prev {
			t.Errorf("downloads should grow with update count: %d after %d updates", ans.Downloads, n)
		}
		if n == 0 && ans.Downloads != 0 {
			t.Errorf("no updates but %d downloads", ans.Downloads)
		}
		if n > 0 && ans.Downloads != n {
			t.Errorf("downloads = %d, want %d (one per updated page)", ans.Downloads, n)
		}
		prev = ans.Downloads
	}
}

func TestConcurrentMaterializedQueries(t *testing.T) {
	_, _, _, eng := fixture(t)
	// Algorithm 3 evaluations share the store; concurrent queries must not
	// race (run with -race in CI).
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := eng.Query("SELECT p.PName, p.Email FROM Professor p WHERE p.Rank = 'Full'")
			done <- err
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestFollowPagesSkipsCheckedButGone(t *testing.T) {
	u, ms, store, _ := fixture(t)
	// Mark a URL checked, then remove it from the store: FollowPages must
	// skip it without re-checking.
	victim := profPageURL(t, u, 5)
	store.BeginEvaluation()
	if _, _, err := store.URLCheck(victim, sitegen.ProfPage); err != nil {
		t.Fatal(err)
	}
	store.mu.Lock()
	delete(store.pages, victim)
	store.mu.Unlock()
	heads := ms.Counters().Heads()
	tuples, err := store.FollowPages(sitegen.ProfPage, []string{victim})
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 0 {
		t.Errorf("checked-but-gone page should be skipped: %v", tuples)
	}
	if ms.Counters().Heads() != heads {
		t.Error("checked page must not be re-checked")
	}
}

func TestURLCheckNewStatusDownloadsDirectly(t *testing.T) {
	u, ms, store, _ := fixture(t)
	url := profPageURL(t, u, 6)
	store.BeginEvaluation()
	store.mu.Lock()
	store.status[url] = StatusNew
	delete(store.pages, url)
	store.mu.Unlock()
	heads := ms.Counters().Heads()
	tup, exists, err := store.URLCheck(url, sitegen.ProfPage)
	if err != nil || !exists {
		t.Fatalf("URLCheck: %v %v", exists, err)
	}
	if _, ok := tup.Get("Name"); !ok {
		t.Error("downloaded tuple malformed")
	}
	// Function 2 line 1–2: status new skips the light connection.
	if ms.Counters().Heads() != heads {
		t.Error("new pages are downloaded without a light connection")
	}
	// The page that appeared-and-vanished path.
	ghost := "http://univ.example.edu/prof/404.html"
	store.mu.Lock()
	store.status[ghost] = StatusNew
	store.mu.Unlock()
	_, exists, err = store.URLCheck(ghost, sitegen.ProfPage)
	if err != nil || exists {
		t.Errorf("vanished new page: exists=%v err=%v", exists, err)
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

// TestRefreshToleratesUnreachablePages: a full-view refresh over a source
// that is partially down keeps the stale rows (the view stays answerable),
// reports their URLs, and a later refresh picks them up once the source
// heals.
func TestRefreshToleratesUnreachablePages(t *testing.T) {
	u, ms, _, _ := fixtureParts(t)
	srv := &downServer{Server: ms}
	store, err := Materialize(srv, u.Scheme)
	if err != nil {
		t.Fatal(err)
	}

	victim := profPageURL(t, u, 2)
	ms.RemovePage(profPageURL(t, u, 5))
	srv.setDown(victim)

	updated, deleted, stale, err := store.Refresh()
	if err != nil {
		t.Fatalf("refresh over a partially-down source: %v", err)
	}
	if deleted != 1 {
		t.Errorf("deleted = %d, want 1 (the removed page is a clean 404)", deleted)
	}
	if len(stale) != 1 || stale[0] != victim {
		t.Errorf("stale = %v, want [%s]", stale, victim)
	}
	if _, ok := store.Page(victim); !ok {
		t.Error("unreachable page must keep its stale row")
	}
	_ = updated

	srv.setDown("")
	_, deleted, stale, err = store.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 0 {
		t.Errorf("stale after heal = %v, want none", stale)
	}
	if deleted != 0 {
		t.Errorf("deleted after heal = %d, want 0", deleted)
	}
	if _, ok := store.Page(victim); !ok {
		t.Error("healed page should still be materialized")
	}
}

// TestLiveSourceSharesPages routes the live fetches of a partial store's
// non-materialized schemes through a shared cross-query page store: the
// second query's pages come from the store instead of the network, and the
// accounting moves to the source (the store's Downloads counter keeps
// covering only maintenance traffic).
func TestLiveSourceSharesPages(t *testing.T) {
	u, ms, _, _ := fixtureParts(t)
	store, err := MaterializeSchemes(ms, u.Scheme, []string{
		sitegen.ProfListPage, sitegen.ProfPage,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(view.UniversityView(u.Scheme), store, stats.CollectInstance(u.Instance))
	cache := pagecache.New(ms, u.Scheme, pagecache.Config{
		DefaultTTL: pagecache.Forever,
		Clock:      site.LogicalClock(),
	})

	const query = "SELECT c.CName FROM Course c WHERE c.Session = 'Fall'"
	s1 := cache.NewSession(pagecache.SessionOptions{})
	store.SetLiveSource(s1)
	a1, err := eng.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	st1 := s1.Stats()
	if st1.Fetches == 0 {
		t.Fatal("out-of-portion query fetched nothing through the live source")
	}
	if a1.Downloads != 0 {
		t.Errorf("store counted %d Downloads for source-served fetches, want 0", a1.Downloads)
	}

	gets := ms.Counters().Gets()
	s2 := cache.NewSession(pagecache.SessionOptions{})
	store.SetLiveSource(s2)
	a2, err := eng.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if !a2.Result.Equal(a1.Result) {
		t.Error("shared-store answer differs between queries")
	}
	st2 := s2.Stats()
	if st2.Fetches != 0 || st2.CacheHits != st1.Fetches {
		t.Errorf("second query: %d fetches, %d hits; want 0 and %d", st2.Fetches, st2.CacheHits, st1.Fetches)
	}
	if got := ms.Counters().Gets(); got != gets {
		t.Errorf("second query cost %d GETs, want 0 (shared store)", got-gets)
	}
}

// TestStaleServeWhenBreakerOpen drives lazy maintenance through a sick
// origin behind the site-health guard: once the breaker opens, URLCheck
// serves the stored copy without confirmation (counted as a StaleServe)
// instead of failing, and resumes verified checks after the site heals.
func TestStaleServeWhenBreakerOpen(t *testing.T) {
	u, ms, _, _ := fixtureParts(t)
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
	advance := func(d time.Duration) {
		now.mu.Lock()
		now.t = now.t.Add(d)
		now.mu.Unlock()
	}
	chaos := faults.New(ms, 7)
	// Materialize itself runs through the guard and leaves its EWMA near
	// zero, so with Alpha = 0.5 the error rate after one failure is 0.5 and
	// after two is 0.75: a 0.6 threshold deterministically needs exactly
	// two real failures to trip.
	g := guard.New(chaos, guard.Config{
		Clock:          clock,
		ErrorThreshold: 0.6,
		OpenFor:        30 * time.Second,
	})
	store, err := Materialize(g, u.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	stored, ok := store.Page(sitegen.UnivProfListURL)
	if !ok {
		t.Fatal("prof list not materialized")
	}
	store.ResetCounters()
	store.BeginEvaluation()

	// The origin goes down hard: the first two checks fail for real and
	// trip the breaker.
	chaos.SetRules(faults.Rule{Kind: faults.Transient, Rate: 1})
	for i := 0; i < 2; i++ {
		if _, _, err := store.URLCheck(sitegen.UnivProfListURL, sitegen.ProfListPage); err == nil {
			t.Fatalf("check %d: expected a transient failure", i)
		}
	}
	if got := g.StateOf(guard.HostOf(sitegen.UnivProfListURL)); got != guard.Open {
		t.Fatalf("breaker state %v, want Open", got)
	}

	// With the breaker open the check is answered from the stored copy.
	tup, exists, err := store.URLCheck(sitegen.UnivProfListURL, sitegen.ProfListPage)
	if err != nil || !exists {
		t.Fatalf("stale check: exists=%v err=%v", exists, err)
	}
	if !tup.Equal(stored.Tuple) {
		t.Fatal("stale check returned a different tuple than the stored copy")
	}
	c := store.Counters()
	if c.StaleServes != 1 || c.LightConnections != 2 || c.Downloads != 0 {
		t.Fatalf("counters %+v, want 1 stale serve, 2 light connections, 0 downloads", c)
	}

	// The site heals and the open window lapses: the half-open probe
	// verifies the page with a real light connection again.
	chaos.SetRules()
	advance(31 * time.Second)
	if _, exists, err := store.URLCheck(sitegen.UnivProfListURL, sitegen.ProfListPage); err != nil || !exists {
		t.Fatalf("recovered check: exists=%v err=%v", exists, err)
	}
	c = store.Counters()
	if c.StaleServes != 1 || c.LightConnections != 3 || c.Downloads != 0 {
		t.Fatalf("post-recovery counters %+v, want 3 light connections and no new stale serves", c)
	}
}
