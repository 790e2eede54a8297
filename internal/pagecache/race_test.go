package pagecache

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentQueriesShareFetches hammers one shared store with many
// concurrent sessions over overlapping URL subsets. The singleflight
// admission must collapse every concurrent miss: the site sees exactly one
// physical GET per distinct URL, no matter how many queries raced for it,
// and the queries' ledgers say who paid: a GET is a Fetch for every query
// that needed it and a SharedFetch for all of them but the one that led it.
// Run under -race this also exercises the store's locking.
func TestConcurrentQueriesShareFetches(t *testing.T) {
	ms, u := testSite(t)
	c := New(ms, u.Scheme, Config{DefaultTTL: Forever, Clock: newManualClock().Now})

	urls := ms.URLs()
	if len(urls) > 24 {
		urls = urls[:24]
	}
	schemes := make([]string, len(urls))
	for i, uu := range urls {
		s, ok := ms.SchemeOf(uu)
		if !ok {
			t.Fatalf("no scheme for %s", uu)
		}
		schemes[i] = s
	}

	const (
		queries = 8
		rounds  = 6
	)
	var wg sync.WaitGroup
	errs := make(chan error, queries)
	var mu sync.Mutex
	totals := SessionStats{}

	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Each query sweeps a distinct overlapping window of
				// the URL space, batch-fetching some and single-fetching
				// the rest.
				lo := (q * 3) % len(urls)
				hi := lo + len(urls)/2
				sess := c.NewSession(SessionOptions{Workers: 4})
				var batch []string
				batchScheme := ""
				for i := lo; i < hi; i++ {
					j := i % len(urls)
					if batchScheme == "" || schemes[j] == batchScheme {
						batchScheme = schemes[j]
						batch = append(batch, urls[j])
						continue
					}
					if _, err := sess.FetchCtx(context.Background(), schemes[j], urls[j]); err != nil {
						errs <- fmt.Errorf("query %d round %d: %s: %w", q, r, urls[j], err)
						return
					}
				}
				if len(batch) > 0 {
					if _, err := sess.FetchAllCtx(context.Background(), batchScheme, batch); err != nil {
						errs <- fmt.Errorf("query %d round %d batch: %w", q, r, err)
						return
					}
				}
				st := sess.Stats()
				mu.Lock()
				totals.Accesses += st.Accesses
				totals.Fetches += st.Fetches
				totals.SharedFetches += st.SharedFetches
				totals.CacheHits += st.CacheHits
				totals.Revalidations += st.Revalidations
				mu.Unlock()
			}
		}(q)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The hard invariant: physical GETs == distinct URLs touched, ever.
	distinct := ms.Counters().DistinctGets()
	if gets := ms.Counters().Gets(); gets != distinct {
		t.Fatalf("site saw %d GETs over %d distinct URLs; singleflight leaked %d duplicate fetches",
			gets, distinct, gets-distinct)
	}
	if cs := c.Stats(); cs.Fetches != distinct {
		t.Fatalf("cache counted %d fetches, site served %d distinct URLs", cs.Fetches, distinct)
	}
	// Every session access was accounted as exactly one outcome.
	if totals.Accesses != totals.Fetches+totals.CacheHits+totals.Revalidations {
		t.Fatalf("session accounting leak: %+v", totals)
	}
	if led := totals.Fetches - totals.SharedFetches; led != distinct {
		t.Fatalf("queries led %d fetches (%d resolved by a GET, %d of them joined), want %d (one per distinct URL)",
			led, totals.Fetches, totals.SharedFetches, distinct)
	}
}

// TestConcurrentRevalidation expires the whole store and lets concurrent
// sessions race to revalidate: the flights must also collapse HEADs, and an
// unchanged site costs zero re-downloads.
func TestConcurrentRevalidation(t *testing.T) {
	ms, u := testSite(t)
	clk := newManualClock()
	const ttl = 10
	c := New(ms, u.Scheme, Config{DefaultTTL: ttl, Clock: clk.Now})

	urls := ms.URLs()
	if len(urls) > 12 {
		urls = urls[:12]
	}
	schemes := make([]string, len(urls))
	for i, uu := range urls {
		schemes[i], _ = ms.SchemeOf(uu)
	}
	// Prime sequentially.
	for i := range urls {
		fetchOne(t, c, schemes[i], urls[i])
	}
	baseGets := ms.Counters().Gets()
	clk.Advance(ttl + 1)

	var wg sync.WaitGroup
	for q := 0; q < 8; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := c.NewSession(SessionOptions{})
			for i := range urls {
				if _, err := sess.FetchCtx(context.Background(), schemes[i], urls[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if gets := ms.Counters().Gets(); gets != baseGets {
		t.Fatalf("unchanged site cost %d re-downloads", gets-baseGets)
	}
	if heads := ms.Counters().Heads(); heads != len(urls) {
		t.Fatalf("site saw %d HEADs for %d expired URLs; flights leaked duplicates", heads, len(urls))
	}
}
