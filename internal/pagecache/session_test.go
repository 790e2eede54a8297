package pagecache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ulixes/internal/adm"
	"ulixes/internal/faults"
	"ulixes/internal/nested"
	"ulixes/internal/race"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
)

// stores are the two deployments of the one page store; every behaviour of
// the access path is asserted on both.
var stores = []struct {
	name string
	cfg  func(Config) Config
}{
	// What the engine builds when a query brings no store of its own.
	{"private", func(c Config) Config {
		c.DefaultTTL, c.Workers, c.MaxInFlight = Forever, 4, 4
		return c
	}},
	// What ulixesd shares across queries.
	{"shared", func(c Config) Config {
		c.DefaultTTL, c.MaxBytes, c.Workers = time.Minute, 64<<20, 4
		c.Clock = newManualClock().Now
		return c
	}},
}

// onStores runs a test once per deployment; mk builds that deployment's
// store over a server with the test's retry settings.
func onStores(t *testing.T, run func(t *testing.T, u *sitegen.University, ms *site.MemSite, mk func(site.Server, Config) *Cache)) {
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			ms, u := testSite(t)
			run(t, u, ms, func(srv site.Server, c Config) *Cache { return New(srv, u.Scheme, st.cfg(c)) })
		})
	}
}

var errBadURL = errors.New("injected fetch failure")

// scriptServer delegates to a MemSite, counting every server-side GET and
// failing them as scripted: always for the URL bad, the first failFirst
// attempts of every other URL.
type scriptServer struct {
	*site.MemSite
	bad       string
	failFirst int

	mu   sync.Mutex
	gets map[string]int
}

func (s *scriptServer) Get(url string) (site.Page, error) {
	s.mu.Lock()
	if s.gets == nil {
		s.gets = make(map[string]int)
	}
	k := s.gets[url]
	s.gets[url] = k + 1
	s.mu.Unlock()
	if url == s.bad || k < s.failFirst {
		return site.Page{}, errBadURL
	}
	return s.MemSite.Get(url) //lint:allow fetchgate fault-injecting Server double delegates
}

func (s *scriptServer) count(url string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets[url]
}

// gatedServer blocks each GET until released, then fails it unless healed —
// so a test can pile concurrent askers onto one in-flight download.
type gatedServer struct {
	*site.MemSite
	started chan struct{} // signaled once per GET start
	release chan struct{} // closed to let GETs proceed
	healed  atomic.Bool
	gets    atomic.Int64
}

func (s *gatedServer) Get(url string) (site.Page, error) {
	s.gets.Add(1)
	healed := s.healed.Load()
	s.started <- struct{}{}
	<-s.release
	if healed {
		return s.MemSite.Get(url) //lint:allow fetchgate fault-injecting Server double delegates
	}
	return site.Page{}, errBadURL
}

// joinSpy is a context that counts Done calls. A session asker that joins
// another asker's resolution selects on ctx.Done() right before it blocks,
// so the count tells a test when every joiner has piled up.
type joinSpy struct {
	context.Context
	joined atomic.Int64
}

func (c *joinSpy) Done() <-chan struct{} {
	c.joined.Add(1)
	return nil
}

func profURLs(t *testing.T, u *sitegen.University) []string {
	t.Helper()
	var urls []string
	for _, tup := range u.Instance.Relation(sitegen.ProfPage).Tuples() {
		urls = append(urls, tup.MustGet(adm.URLAttr).String())
	}
	if len(urls) < 10 {
		t.Fatalf("want at least 10 professor pages, have %d", len(urls))
	}
	return urls
}

// outcomes is the right-hand side of the access invariant.
func outcomes(st SessionStats) int {
	return st.Fetches + st.CacheHits + st.Revalidations + st.Stale
}

// TestSessionSingleflight races 16 goroutines of one query over the same
// URL set, single accesses and overlapping batches alike: the server sees
// exactly one GET per distinct URL and the session counts each page once.
func TestSessionSingleflight(t *testing.T) {
	onStores(t, func(t *testing.T, u *sitegen.University, ms *site.MemSite, mk func(site.Server, Config) *Cache) {
		urls := profURLs(t, u)
		sess := mk(ms, Config{}).NewSession(SessionOptions{Workers: 16})
		ctx := context.Background()
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if g%2 == 0 {
					// Overlapping slices of the same URL set.
					if _, err := sess.FetchAllCtx(ctx, sitegen.ProfPage, urls[g%3:]); err != nil {
						t.Error(err)
					}
					return
				}
				for _, url := range urls {
					if _, err := sess.FetchCtx(ctx, sitegen.ProfPage, url); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if got := ms.Counters().Gets(); got != len(urls) {
			t.Errorf("server saw %d GETs for %d distinct URLs", got, len(urls))
		}
		st := sess.Stats()
		if st.Accesses != len(urls) || st.Fetches != len(urls) || outcomes(st) != len(urls) {
			t.Errorf("session ledger %+v, want %d accesses, all fetches", st, len(urls))
		}
	})
}

// TestSessionResolvesOnce is the double-count regression: many pipeline
// branches asking one session for the same URL at once are one access with
// one outcome, on a cold store (a fetch) and on a warm one (a hit).
func TestSessionResolvesOnce(t *testing.T) {
	onStores(t, func(t *testing.T, u *sitegen.University, ms *site.MemSite, mk func(site.Server, Config) *Cache) {
		url := profURLs(t, u)[0]
		srv := &gatedServer{MemSite: ms, started: make(chan struct{}, 1), release: make(chan struct{})}
		srv.healed.Store(true)
		c := mk(srv, Config{})
		const askers = 32
		for _, temp := range []string{"cold", "warm"} {
			sess := c.NewSession(SessionOptions{})
			spy := &joinSpy{Context: context.Background()}
			var wg sync.WaitGroup
			ask := func(ctx context.Context) {
				defer wg.Done()
				if _, err := sess.FetchCtx(ctx, sitegen.ProfPage, url); err != nil {
					t.Error(err)
				}
			}
			if temp == "cold" {
				// Hold the leader inside the site so every other asker
				// arrives while the URL is still being resolved.
				wg.Add(1)
				go ask(context.Background())
				<-srv.started
				for i := 0; i < askers; i++ {
					wg.Add(1)
					go ask(spy)
				}
				for spy.joined.Load() < askers {
					time.Sleep(50 * time.Microsecond)
				}
				close(srv.release)
			} else {
				for i := 0; i < askers; i++ {
					wg.Add(1)
					go ask(context.Background())
				}
			}
			wg.Wait()
			st := sess.Stats()
			want := SessionStats{Accesses: 1, CacheHits: 1}
			if temp == "cold" {
				want = SessionStats{Accesses: 1, Fetches: 1, Bytes: st.Bytes}
			}
			if st != want {
				t.Errorf("%s store: %d askers of one URL left ledger %+v, want %+v", temp, askers, st, want)
			}
		}
		if got := srv.gets.Load(); got != 1 {
			t.Errorf("server saw %d GETs, want 1", got)
		}
	})
}

// TestSessionOrderAndPinning verifies batches preserve input order, count a
// duplicated URL once, and that a second batch is served entirely from the
// session's pinned pages.
func TestSessionOrderAndPinning(t *testing.T) {
	onStores(t, func(t *testing.T, u *sitegen.University, ms *site.MemSite, mk func(site.Server, Config) *Cache) {
		urls := profURLs(t, u)
		batch := append(append([]string{}, urls...), urls[0], urls[0])
		sess := mk(ms, Config{}).NewSession(SessionOptions{})
		ctx := context.Background()
		tuples, err := sess.FetchAllCtx(ctx, sitegen.ProfPage, batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(tuples) != len(batch) {
			t.Fatalf("got %d tuples for %d URLs", len(tuples), len(batch))
		}
		for i, tup := range tuples {
			if got := tup.MustGet(adm.URLAttr).String(); got != batch[i] {
				t.Fatalf("tuple %d: URL = %s, want %s", i, got, batch[i])
			}
		}
		first := sess.Stats()
		if first.Accesses != len(urls) || first.Fetches != len(urls) {
			t.Errorf("ledger %+v, want %d distinct accesses", first, len(urls))
		}
		if _, err := sess.FetchAllCtx(ctx, sitegen.ProfPage, batch); err != nil {
			t.Fatal(err)
		}
		if got := ms.Counters().Gets(); got != len(urls) {
			t.Errorf("server saw %d GETs, want %d (second batch is pinned)", got, len(urls))
		}
		if again := sess.Stats(); again != first {
			t.Errorf("re-asking pinned pages moved the ledger: %+v → %+v", first, again)
		}
		if out, err := sess.FetchAllCtx(ctx, sitegen.ProfPage, nil); err != nil || len(out) != 0 {
			t.Errorf("empty batch: %v %v", out, err)
		}
	})
}

// TestSessionRetry: a URL that fails its first two GETs is one logical
// fetch with two retries in the query's ledger; when the fault outlives the
// budget the final error surfaces, nothing is pinned, and a later ask of
// the same query reaches the network again.
func TestSessionRetry(t *testing.T) {
	onStores(t, func(t *testing.T, u *sitegen.University, ms *site.MemSite, mk func(site.Server, Config) *Cache) {
		urls := profURLs(t, u)
		srv := &scriptServer{MemSite: ms, failFirst: 2}
		c := mk(srv, Config{Retry: site.RetryPolicy{MaxRetries: 2, Seed: 7}, Sleeper: &site.InstantSleeper{}})
		sess := c.NewSession(SessionOptions{})
		ctx := context.Background()
		if _, err := sess.FetchCtx(ctx, sitegen.ProfPage, urls[0]); err != nil {
			t.Fatalf("fetch with retries should recover: %v", err)
		}
		if st := sess.Stats(); st.Fetches != 1 || st.Retries != 2 || c.RetriesFor(urls[0]) != 2 {
			t.Errorf("ledger %+v (RetriesFor %d), want one fetch after 2 retries", st, c.RetriesFor(urls[0]))
		}

		srv.failFirst = 4
		if _, err := sess.FetchCtx(ctx, sitegen.ProfPage, urls[1]); !errors.Is(err, errBadURL) {
			t.Fatalf("err = %v, want errBadURL after exhausting retries", err)
		}
		if got := srv.count(urls[1]); got != 3 {
			t.Errorf("server saw %d GETs, want 3 (1 + 2 retries)", got)
		}
		// GETs four and five fail and succeed: the transient failure was
		// not pinned, and the page is still one access.
		if _, err := sess.FetchCtx(ctx, sitegen.ProfPage, urls[1]); err != nil {
			t.Fatalf("transient exhaustion must not poison the URL: %v", err)
		}
		if st := sess.Stats(); st.Accesses != 2 || st.Fetches != 2 {
			t.Errorf("ledger %+v, want 2 accesses resolved by 2 fetches", st)
		}
	})
}

// TestSessionRefusesMissingPageOnce: a permanently-missing page is probed
// exactly once per query — no retries, and later asks fail without touching
// the network — while the next query gives it a fresh chance.
func TestSessionRefusesMissingPageOnce(t *testing.T) {
	onStores(t, func(t *testing.T, u *sitegen.University, ms *site.MemSite, mk func(site.Server, Config) *Cache) {
		const gone = "http://univ.example.edu/no-such-page.html"
		srv := &scriptServer{MemSite: ms}
		c := mk(srv, Config{Retry: site.RetryPolicy{MaxRetries: 5}, Sleeper: &site.InstantSleeper{}})
		sess := c.NewSession(SessionOptions{})
		for i := 0; i < 3; i++ {
			if _, err := sess.FetchCtx(context.Background(), sitegen.ProfPage, gone); !errors.Is(err, site.ErrNotFound) {
				t.Fatalf("ask %d: err = %v, want ErrNotFound", i, err)
			}
		}
		if got := srv.count(gone); got != 1 {
			t.Errorf("server saw %d GETs, want 1 (not retried, refused from then on)", got)
		}
		if st := sess.Stats(); st.Accesses != 1 || st.Retries != 0 {
			t.Errorf("ledger %+v, want one access and no retries", st)
		}
		if _, err := c.NewSession(SessionOptions{}).FetchCtx(context.Background(), sitegen.ProfPage, gone); !errors.Is(err, site.ErrNotFound) {
			t.Fatalf("next query: err = %v, want ErrNotFound", err)
		}
		if got := srv.count(gone); got != 2 {
			t.Errorf("server saw %d GETs after the next query, want 2", got)
		}
	})
}

// TestSessionBatchErrors: a strict batch aborts on the first error without
// deadlocking its producer (one worker, error up front) or its workers
// (errors mid-batch); a degraded batch returns every reachable page plus a
// structured PartialError carrying the final error and the retries burned
// reaching it.
func TestSessionBatchErrors(t *testing.T) {
	onStores(t, func(t *testing.T, u *sitegen.University, ms *site.MemSite, mk func(site.Server, Config) *Cache) {
		urls := profURLs(t, u)
		ctx := context.Background()
		for _, tc := range []struct{ workers, bad int }{{1, 0}, {4, len(urls) / 2}} {
			c := mk(&scriptServer{MemSite: ms, bad: urls[tc.bad]}, Config{})
			result := make(chan error, 1)
			go func() {
				_, err := c.NewSession(SessionOptions{Workers: tc.workers}).FetchAllCtx(ctx, sitegen.ProfPage, urls)
				result <- err
			}()
			select {
			case err := <-result:
				if !errors.Is(err, errBadURL) {
					t.Fatalf("workers=%d: err = %v, want the injected failure", tc.workers, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("workers=%d: FetchAllCtx deadlocked after a fetch error", tc.workers)
			}
		}

		bad := urls[3]
		c := mk(&scriptServer{MemSite: ms, bad: bad}, Config{
			Retry: site.RetryPolicy{MaxRetries: 2, Seed: 11}, Sleeper: &site.InstantSleeper{},
		})
		sess := c.NewSession(SessionOptions{Degraded: true})
		got, err := sess.FetchAllCtx(ctx, sitegen.ProfPage, urls)
		var pe *site.PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %T (%v), want *site.PartialError", err, err)
		}
		if !errors.Is(err, errBadURL) {
			t.Error("PartialError should unwrap to the underlying fetch error")
		}
		if len(got) != len(urls)-1 {
			t.Errorf("degraded batch returned %d pages, want %d", len(got), len(urls)-1)
		}
		if len(pe.Failures) != 1 || pe.Failures[0].URL != bad || pe.Failures[0].Err == nil || pe.Failures[0].Retries != 2 {
			t.Errorf("PartialError.Failures = %+v, want one entry for %s with 2 retries", pe.Failures, bad)
		}
		if msg := pe.Error(); !strings.Contains(msg, "after 2 retries") {
			t.Errorf("PartialError message lacks retry count: %q", msg)
		}
		if fl := sess.Failures(); len(fl) != 1 || fl[0].URL != bad || fl[0].Retries != 2 {
			t.Errorf("Failures() = %+v, want one entry for %s with 2 retries", fl, bad)
		}
		// A fully healthy batch in degraded mode reports no error at all.
		healthy := mk(ms, Config{}).NewSession(SessionOptions{Degraded: true})
		if _, err := healthy.FetchAllCtx(ctx, sitegen.ProfPage, urls); err != nil {
			t.Errorf("degraded FetchAllCtx over a healthy site: %v", err)
		}
	})
}

// TestSessionErrorPropagation: when many branches of a query race on one
// URL whose single underlying GET fails, every waiter receives the error,
// the server sees exactly one GET, and the URL stays fetchable afterwards —
// a failed resolution neither pins the error nor breaks the coalescing.
func TestSessionErrorPropagation(t *testing.T) {
	onStores(t, func(t *testing.T, u *sitegen.University, ms *site.MemSite, mk func(site.Server, Config) *Cache) {
		url := profURLs(t, u)[0]
		srv := &gatedServer{MemSite: ms, started: make(chan struct{}, 1), release: make(chan struct{})}
		sess := mk(srv, Config{}).NewSession(SessionOptions{})

		const waiters = 15
		errs := make(chan error, waiters+1)
		spy := &joinSpy{Context: context.Background()}
		var wg sync.WaitGroup
		ask := func(ctx context.Context) {
			defer wg.Done()
			_, err := sess.FetchCtx(ctx, sitegen.ProfPage, url)
			errs <- err
		}
		wg.Add(1)
		go ask(context.Background())
		<-srv.started // the resolution is registered and blocked in the server
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go ask(spy)
		}
		// Only once every waiter has joined may the single GET fail, so all
		// of them share its error.
		for spy.joined.Load() < waiters {
			time.Sleep(50 * time.Microsecond)
		}
		close(srv.release)
		wg.Wait()
		close(errs)
		for err := range errs {
			if !errors.Is(err, errBadURL) {
				t.Errorf("waiter error = %v, want errBadURL", err)
			}
		}
		if got := srv.gets.Load(); got != 1 {
			t.Errorf("server saw %d GETs, want 1 (the session must coalesce)", got)
		}

		srv.healed.Store(true)
		if _, err := sess.FetchCtx(context.Background(), sitegen.ProfPage, url); err != nil {
			t.Fatalf("fetch after heal: %v", err)
		}
		if got := srv.gets.Load(); got != 2 {
			t.Errorf("server saw %d GETs after heal, want 2", got)
		}
		if st := sess.Stats(); st.Accesses != 1 || st.Fetches != 1 {
			t.Errorf("ledger %+v, want one access resolved by one fetch", st)
		}
	})
}

// TestStorePathResilience pins what the one transport guarantees on every
// store: the per-attempt deadline breaks a stalled download, a truncated
// body is retried, and a wrapper panic is a fetch error, not a crash.
func TestStorePathResilience(t *testing.T) {
	onStores(t, func(t *testing.T, u *sitegen.University, ms *site.MemSite, mk func(site.Server, Config) *Cache) {
		urls := profURLs(t, u)
		ctx := context.Background()
		chaos := faults.New(ms, 1998,
			faults.Rule{Pattern: urls[0], Kind: faults.Stall, First: 1},
			faults.Rule{Pattern: urls[1], Kind: faults.Truncate, First: 1})
		c := mk(chaos, Config{
			Retry:   site.RetryPolicy{MaxRetries: 1, AttemptTimeout: time.Second, Seed: 3},
			Sleeper: &site.InstantSleeper{},
		})
		for i, what := range []string{"stalled attempt", "truncated body"} {
			sess := c.NewSession(SessionOptions{})
			done := make(chan error, 1)
			go func() {
				_, err := sess.FetchCtx(ctx, sitegen.ProfPage, urls[i])
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s: the retry should succeed: %v", what, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: the access hung — AttemptTimeout is not reaching the store path", what)
			}
			if st := sess.Stats(); st.Fetches != 1 || st.Retries != 1 {
				t.Errorf("%s: ledger %+v, want one fetch after one retry", what, st)
			}
		}

		// Without a retry budget the deadline surfaces as such.
		strict := mk(faults.New(ms, 1998, faults.Rule{Kind: faults.Stall, First: 1}), Config{
			Retry: site.RetryPolicy{AttemptTimeout: time.Second}, Sleeper: &site.InstantSleeper{},
		})
		if _, err := strict.Access(ctx, sitegen.ProfPage, urls[2]); !errors.Is(err, site.ErrAttemptTimeout) {
			t.Fatalf("err = %v, want ErrAttemptTimeout", err)
		}

		// hypertext sizes a page's tuple from its scheme on first use; a
		// scheme that grows an attribute afterwards makes the wrapper index
		// out of range — standing in for any extraction bug a hostile page
		// might trip.
		c = mk(ms, Config{})
		fetchOne(t, c, sitegen.ProfPage, urls[3])
		ps := u.Scheme.Page(sitegen.ProfPage)
		ps.Attrs = append(ps.Attrs, nested.Field{Name: "Bolted", Type: nested.Text(), Optional: true})
		_, err := c.NewSession(SessionOptions{}).FetchCtx(ctx, sitegen.ProfPage, urls[4])
		if err == nil || !strings.Contains(err.Error(), "wrapper panic") {
			t.Fatalf("err = %v, want a wrapper-panic fetch error", err)
		}
		if got := c.Stats().WrapPanics; got != 1 {
			t.Fatalf("WrapPanics = %d, want 1", got)
		}
		if c.Len() != 1 {
			t.Fatalf("entries = %d, want only the page fetched before the panic", c.Len())
		}
	})
}

// warmStore builds a deployment's store and fills it with urls, one access
// at a time so that its counters are deterministic.
func warmStore(t *testing.T, mk func(site.Server, Config) *Cache, srv site.Server, urls []string) *Cache {
	t.Helper()
	c := mk(srv, Config{})
	for _, url := range urls {
		fetchOne(t, c, sitegen.ProfPage, url)
	}
	return c
}

// countReads wraps a store's clock and counts its readings.
func countReads(c *Cache) *atomic.Int64 {
	var n atomic.Int64
	clock := c.clock
	c.clock = func() time.Time {
		n.Add(1)
		return clock()
	}
	return &n
}

// TestSessionBatchHitsInline: a batch the store holds fresh is resolved on
// the calling goroutine and counted exactly as the same accesses made one
// FetchCtx at a time — per query and store-wide — with no GET and no worker
// pool.
func TestSessionBatchHitsInline(t *testing.T) {
	onStores(t, func(t *testing.T, u *sitegen.University, ms *site.MemSite, mk func(site.Server, Config) *Cache) {
		urls := profURLs(t, u)
		ctx := context.Background()
		batched, single := warmStore(t, mk, ms, urls), warmStore(t, mk, ms, urls)
		gets := ms.Counters().Gets()

		bs := batched.NewSession(SessionOptions{})
		tuples, err := bs.FetchAllCtx(ctx, sitegen.ProfPage, urls)
		if err != nil {
			t.Fatal(err)
		}
		for i, tup := range tuples {
			if got := tup.MustGet(adm.URLAttr).String(); got != urls[i] {
				t.Fatalf("tuple %d: URL = %s, want %s", i, got, urls[i])
			}
		}
		ss := single.NewSession(SessionOptions{})
		for _, url := range urls {
			if _, err := ss.FetchCtx(ctx, sitegen.ProfPage, url); err != nil {
				t.Fatal(err)
			}
		}
		if want := (SessionStats{Accesses: len(urls), CacheHits: len(urls)}); bs.Stats() != want || ss.Stats() != want {
			t.Errorf("ledgers: batch %+v, one at a time %+v, want %+v", bs.Stats(), ss.Stats(), want)
		}
		if b, s := batched.Stats(), single.Stats(); b != s {
			t.Errorf("store stats: batch %+v, one at a time %+v", b, s)
		}
		if got := ms.Counters().Gets(); got != gets {
			t.Errorf("an all-hit batch issued %d GETs", got-gets)
		}

		if race.Enabled {
			t.Skip("allocation counts are inflated under -race")
		}
		// A worker pool costs its channels and goroutine closures; inline
		// resolution costs no more than FetchCtx does per access, plus the
		// batch's result slices.
		batch := testing.AllocsPerRun(20, func() {
			if _, err := batched.NewSession(SessionOptions{}).FetchAllCtx(ctx, sitegen.ProfPage, urls); err != nil {
				t.Fatal(err)
			}
		})
		oneByOne := testing.AllocsPerRun(20, func() {
			s := single.NewSession(SessionOptions{})
			for _, url := range urls {
				if _, err := s.FetchCtx(ctx, sitegen.ProfPage, url); err != nil {
					t.Fatal(err)
				}
			}
		})
		if batch > oneByOne+3 {
			t.Errorf("all-hit batch of %d: %.0f allocs, one FetchCtx at a time %.0f: the batch started workers", len(urls), batch, oneByOne)
		}
	})
}

// TestSessionBatchBudget: the budget is spent in input order on the calling
// goroutine, whether the store holds the pages or not, and an overrun
// aborts the batch in degraded mode too. Accesses the aborted batch
// registered but never started are not pinned as failures: a later ask
// reaches the store without being counted again.
func TestSessionBatchBudget(t *testing.T) {
	onStores(t, func(t *testing.T, u *sitegen.University, ms *site.MemSite, mk func(site.Server, Config) *Cache) {
		urls := profURLs(t, u)[:5]
		ctx := context.Background()
		warm := warmStore(t, mk, ms, urls)
		for _, degraded := range []bool{false, true} {
			s := warm.NewSession(SessionOptions{PageBudget: 3, Degraded: degraded})
			if _, err := s.FetchAllCtx(ctx, sitegen.ProfPage, urls); !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("warm store, degraded=%v: err = %v, want ErrBudgetExceeded", degraded, err)
			}
		}

		cold := mk(ms, Config{})
		gets := ms.Counters().Gets()
		s := cold.NewSession(SessionOptions{PageBudget: 3})
		if _, err := s.FetchAllCtx(ctx, sitegen.ProfPage, urls); !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("cold store: err = %v, want ErrBudgetExceeded", err)
		}
		if got := ms.Counters().Gets() - gets; got != 0 {
			t.Errorf("an over-budget batch issued %d GETs", got)
		}
		if _, err := s.FetchCtx(ctx, sitegen.ProfPage, urls[0]); err != nil {
			t.Fatalf("an access the aborted batch never started must stay fetchable: %v", err)
		}
		if st := s.Stats(); st.Accesses != 3 || st.Fetches != 1 {
			t.Errorf("ledger %+v, want 3 accesses (the budget) resolved by 1 fetch so far", st)
		}
	})
}

// TestSessionBatchRevalidatesMarkedStale: a force-expired entry is not a
// hit for the inline path; it revalidates with one light connection and no
// GET, beside the batch's true hits.
func TestSessionBatchRevalidatesMarkedStale(t *testing.T) {
	onStores(t, func(t *testing.T, u *sitegen.University, ms *site.MemSite, mk func(site.Server, Config) *Cache) {
		urls := profURLs(t, u)
		c := warmStore(t, mk, ms, urls)
		if !c.MarkStale(urls[3]) {
			t.Fatal("MarkStale found nothing")
		}
		gets, heads := ms.Counters().Gets(), ms.Counters().Heads()
		s := c.NewSession(SessionOptions{})
		if _, err := s.FetchAllCtx(context.Background(), sitegen.ProfPage, urls); err != nil {
			t.Fatal(err)
		}
		want := SessionStats{Accesses: len(urls), CacheHits: len(urls) - 1, Revalidations: 1, LightConnections: 1}
		if st := s.Stats(); st != want {
			t.Errorf("ledger %+v, want %+v", st, want)
		}
		if g, h := ms.Counters().Gets()-gets, ms.Counters().Heads()-heads; g != 0 || h != 1 {
			t.Errorf("site saw %d GETs / %d HEADs, want 0 / 1", g, h)
		}
	})
}

// TestSessionBatchWaitsForFlight: a URL another branch of the query is
// still resolving is waited on, never served inline as a hit, and stays
// one access with one outcome.
func TestSessionBatchWaitsForFlight(t *testing.T) {
	onStores(t, func(t *testing.T, u *sitegen.University, ms *site.MemSite, mk func(site.Server, Config) *Cache) {
		urls := profURLs(t, u)
		srv := &gatedServer{MemSite: ms, started: make(chan struct{}, 1), release: make(chan struct{})}
		srv.healed.Store(true)
		c := mk(srv, Config{})
		// One page the store holds, one the query is fetching.
		warm := c.NewSession(SessionOptions{})
		go func() { <-srv.started; srv.release <- struct{}{} }()
		if _, err := warm.FetchCtx(context.Background(), sitegen.ProfPage, urls[0]); err != nil {
			t.Fatal(err)
		}
		sess := c.NewSession(SessionOptions{})
		leader := make(chan error, 1)
		go func() {
			_, err := sess.FetchCtx(context.Background(), sitegen.ProfPage, urls[1])
			leader <- err
		}()
		<-srv.started

		spy := &joinSpy{Context: context.Background()}
		type result struct {
			tuples []nested.Tuple
			err    error
		}
		batch := make(chan result, 1)
		go func() {
			tuples, err := sess.FetchAllCtx(spy, sitegen.ProfPage, urls[:2])
			batch <- result{tuples, err}
		}()
		for spy.joined.Load() < 1 {
			time.Sleep(50 * time.Microsecond)
		}
		select {
		case r := <-batch:
			t.Fatalf("the batch returned while its URL was in flight: %+v", r)
		default:
		}
		close(srv.release)
		if err := <-leader; err != nil {
			t.Fatal(err)
		}
		r := <-batch
		if r.err != nil {
			t.Fatal(r.err)
		}
		for i, tup := range r.tuples {
			if got := tup.MustGet(adm.URLAttr).String(); got != urls[i] {
				t.Errorf("tuple %d: URL = %s, want %s", i, got, urls[i])
			}
		}
		if st, want := sess.Stats(), (SessionStats{Accesses: 2, CacheHits: 1, Fetches: 1, Bytes: sess.Stats().Bytes}); st != want {
			t.Errorf("ledger %+v, want %+v", st, want)
		}
		if got := srv.gets.Load(); got != 2 {
			t.Errorf("server saw %d GETs, want 2", got)
		}
	})
}

// TestSessionBatchReadsClockOnce: a batch reads the store clock exactly as
// the same accesses made one FetchCtx at a time — once per miss (to lease
// the page), once per hit (to check the lease), and for a revalidation once
// to find the entry expired and once to renew it — so the inline hit check
// never adds a reading. A logical clock advances per reading, so an extra
// one would move every later lease.
func TestSessionBatchReadsClockOnce(t *testing.T) {
	onStores(t, func(t *testing.T, u *sitegen.University, ms *site.MemSite, mk func(site.Server, Config) *Cache) {
		urls := profURLs(t, u)
		ctx := context.Background()
		c := mk(ms, Config{})
		reads := countReads(c)
		for _, tc := range []struct {
			what string
			want int64
		}{
			{"misses", int64(len(urls))},
			{"hits", int64(len(urls))},
			{"one revalidation", int64(len(urls)) + 1},
		} {
			if tc.what == "one revalidation" {
				c.MarkStale(urls[0])
			}
			before := reads.Load()
			if _, err := c.NewSession(SessionOptions{}).FetchAllCtx(ctx, sitegen.ProfPage, urls); err != nil {
				t.Fatal(err)
			}
			if got := reads.Load() - before; got != tc.want {
				t.Errorf("%s: %d clock readings for %d accesses, want %d", tc.what, got, len(urls), tc.want)
			}
		}
	})
}

// TestPrivateStoreBoundsInFlight checks the one construction-time bound: on
// a private store the connection limit is global to the query, so however
// many branches batch at once the site never sees more than MaxInFlight
// simultaneous GETs, and the peak is reported.
func TestPrivateStoreBoundsInFlight(t *testing.T) {
	ms, u := testSite(t)
	ms.SetLatency(200 * time.Microsecond)
	urls := profURLs(t, u)
	c := New(ms, u.Scheme, Config{DefaultTTL: Forever, Workers: 3, MaxInFlight: 3})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Separate sessions, so the batches really do overlap.
			if _, err := c.NewSession(SessionOptions{}).FetchAllCtx(context.Background(), sitegen.ProfPage, urls[g:]); err != nil {
				t.Error(fmt.Errorf("batch %d: %w", g, err))
			}
		}(g)
	}
	wg.Wait()
	if peak := c.Stats().PeakInFlight; peak < 1 || peak > 3 {
		t.Errorf("peak in-flight = %d, want within [1, 3]", peak)
	}
}
