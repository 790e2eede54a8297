package stats

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"ulixes/internal/adm"
	"ulixes/internal/pagecache"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
)

// freshStore is the empty page store CollectSite crawls into.
func freshStore(server site.Server, ws *adm.Scheme) *pagecache.Cache {
	return pagecache.New(server, ws, pagecache.Config{DefaultTTL: pagecache.Forever})
}

func memSite(t *testing.T, inst *adm.Instance) *site.MemSite {
	t.Helper()
	ms, err := site.NewMemSite(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestCrawlReconstructsInstance(t *testing.T) {
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	ms := memSite(t, u.Instance)
	inst, _, err := CrawlWithSizes(freshStore(ms, u.Scheme), u.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range u.Scheme.PageNames() {
		if !inst.Relation(name).Equal(u.Instance.Relation(name)) {
			t.Errorf("crawled %s differs from ground truth", name)
		}
	}
	// CrawlWithSizes downloads each page exactly once.
	if got := ms.Counters().Gets(); got != u.Instance.TotalPages() {
		t.Errorf("crawl cost = %d, want %d", got, u.Instance.TotalPages())
	}
}

// TestCollectSiteIsExact: the crawled statistics are exactly those of the
// ground-truth instance, with each page-scheme's mean HTML size, on both
// generated sites; every page is downloaded once.
func TestCollectSiteIsExact(t *testing.T) {
	paper, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	large, err := sitegen.GenerateUniversity(sitegen.UniversityParams{Courses: 400, Profs: 120, Depts: 8})
	if err != nil {
		t.Fatal(err)
	}
	bib, err := sitegen.GenerateBibliography(sitegen.DefaultBibliographyParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		inst *adm.Instance
	}{
		{"paper university", paper.Instance},
		{"university 400/120/8", large.Instance},
		{"bibliography", bib.Instance},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ms := memSite(t, tc.inst)
			got, pages, err := CollectSite(ms, tc.inst.Scheme)
			if err != nil {
				t.Fatal(err)
			}
			if gets := ms.Counters().Gets(); pages != tc.inst.TotalPages() || gets != pages {
				t.Errorf("crawl reported %d pages and made %d GETs, want %d", pages, gets, tc.inst.TotalPages())
			}
			want := CollectInstance(tc.inst)
			want.PageBytes = meanPageBytes(t, ms, tc.inst)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("crawled statistics differ from the instance's:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// meanPageBytes is the mean HTML size the site serves per page-scheme.
func meanPageBytes(t *testing.T, ms *site.MemSite, inst *adm.Instance) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, name := range inst.Scheme.PageNames() {
		tuples := inst.Relation(name).Tuples()
		if len(tuples) == 0 {
			continue
		}
		var total float64
		for _, tup := range tuples {
			url, _ := tup.Get(adm.URLAttr)
			p, err := ms.Get(url.String()) //lint:allow fetchgate the expected page sizes are read off the site itself
			if err != nil {
				t.Fatal(err)
			}
			total += float64(len(p.HTML))
		}
		out[name] = total / float64(len(tuples))
	}
	return out
}

// TestCollectSiteSkipsDanglingLink: a page removed from the site while a
// link to it remains is absent from the statistics, as navigation treats
// it, instead of failing the crawl.
func TestCollectSiteSkipsDanglingLink(t *testing.T) {
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	ms := memSite(t, u.Instance)
	for _, url := range ms.URLs() {
		if scheme, _ := ms.SchemeOf(url); scheme == sitegen.CoursePage {
			ms.RemovePage(url)
			break
		}
	}
	st, pages, err := CollectSite(ms, u.Scheme)
	if err != nil {
		t.Fatalf("crawl over a dangling link: %v", err)
	}
	if got, want := st.Card[sitegen.CoursePage], float64(u.Params.Courses-1); got != want {
		t.Errorf("|CoursePage| = %v, want %v", got, want)
	}
	if want := u.Instance.TotalPages() - 1; pages != want {
		t.Errorf("crawled %d pages, want %d", pages, want)
	}
}

// brokenServer fails every GET of one URL with an error other than not
// found.
type brokenServer struct {
	site.Server
	url string
}

var errReset = errors.New("connection reset")

func (s brokenServer) Get(url string) (site.Page, error) {
	if url == s.url {
		return site.Page{}, errReset
	}
	return s.Server.Get(url) //lint:allow fetchgate test double forwarding to the wrapped site
}

// TestCrawlFailsOnBrokenSite: only a dangling link is forgiven. A page the
// site fails to serve, or a missing entry point, fails the crawl.
func TestCrawlFailsOnBrokenSite(t *testing.T) {
	u, err := sitegen.GenerateUniversity(sitegen.UniversityParams{Depts: 2, Profs: 4, Courses: 6})
	if err != nil {
		t.Fatal(err)
	}
	ms := memSite(t, u.Instance)
	var profURL string
	for _, url := range ms.URLs() {
		if scheme, _ := ms.SchemeOf(url); scheme == sitegen.ProfPage {
			profURL = url
			break
		}
	}
	if _, _, err := CrawlWithSizes(freshStore(brokenServer{ms, profURL}, u.Scheme), u.Scheme); !errors.Is(err, errReset) {
		t.Errorf("crawl over a failing page: err = %v, want %v", err, errReset)
	}
	ms.RemovePage(sitegen.UnivProfListURL)
	if _, _, err := CrawlWithSizes(freshStore(ms, u.Scheme), u.Scheme); !errors.Is(err, site.ErrNotFound) {
		t.Errorf("crawl from a missing entry point: err = %v, want not found", err)
	}
}

func TestCrawlBibliography(t *testing.T) {
	b, err := sitegen.GenerateBibliography(sitegen.BibliographyParams{
		Authors: 30, Confs: 4, DBConfs: 2, Years: 2, PapersPerEdition: 2, AuthorsPerPaper: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms := memSite(t, b.Instance)
	inst, _, err := CrawlWithSizes(freshStore(ms, b.Scheme), b.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	if inst.TotalPages() != b.Instance.TotalPages() {
		t.Errorf("crawled %d pages, want %d", inst.TotalPages(), b.Instance.TotalPages())
	}
}

// peakServer records the most GETs it has had in flight at once.
type peakServer struct {
	site.Server
	mu             sync.Mutex
	inFlight, peak int
}

func (s *peakServer) Get(url string) (site.Page, error) {
	s.mu.Lock()
	s.inFlight++
	s.peak = max(s.peak, s.inFlight)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.inFlight--
		s.mu.Unlock()
	}()
	return s.Server.Get(url) //lint:allow fetchgate test double forwarding to the wrapped site
}

// TestCrawlFetchesALevelAtOnce: the pages of a level are downloaded
// concurrently, at most site.DefaultFetchWorkers at a time.
func TestCrawlFetchesALevelAtOnce(t *testing.T) {
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	ms := memSite(t, u.Instance)
	ms.SetLatency(time.Millisecond) // long enough for GETs to overlap
	server := &peakServer{Server: ms}
	if _, _, err := CollectSite(server, u.Scheme); err != nil {
		t.Fatal(err)
	}
	if server.peak < 2 || server.peak > site.DefaultFetchWorkers {
		t.Errorf("peak concurrent GETs = %d, want 2..%d", server.peak, site.DefaultFetchWorkers)
	}
}
