package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"ulixes/internal/adm"
	"ulixes/internal/pagecache"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
)

// breakerServer fast-fails the light connections to one URL as an open
// circuit breaker would, so the store serves that page's expired copy
// stale.
type breakerServer struct {
	site.Server
	sick string
}

func (s breakerServer) Head(url string) (site.Meta, error) {
	if url == s.sick {
		return site.Meta{}, fmt.Errorf("%w: HEAD %s", site.ErrBreakerOpen, url)
	}
	return s.Server.Head(url) //lint:allow fetchgate fault-injecting Server double delegates
}

// manualClock is a store clock that moves only when advanced.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestInlineAndAsyncResolutionMatchSequential runs a query over a store
// that answers each kind of access: fresh hits, expired entries a light
// connection revalidates, misses, one expired page whose breaker is open
// and which is served stale, and one dangling link. The pipelined evaluator
// resolves the hits on its follow producers and sends the rest to fetch
// tasks; its answer, ledger, failures and stale pages must be the
// sequential evaluator's over an identical store, at every worker count.
func TestInlineAndAsyncResolutionMatchSequential(t *testing.T) {
	u, ms, base := univEngine(t)
	const query = "SELECT p.PName, p.Rank FROM Professor p"
	var profs []string
	for _, tup := range u.Instance.Relation(sitegen.ProfPage).Tuples() {
		profs = append(profs, tup.MustGet(adm.URLAttr).String())
	}
	var fresh, expired []string
	for i, url := range profs {
		switch i % 3 {
		case 0:
			fresh = append(fresh, url)
		case 1:
			expired = append(expired, url)
		}
	}
	list := u.Instance.Relation(sitegen.ProfListPage).Tuples()[0].MustGet(adm.URLAttr).String()
	fresh = append(fresh, list)
	sick, dangling := expired[0], profs[2]
	if !ms.RemovePage(dangling) {
		t.Fatalf("no page at %s", dangling)
	}
	srv := breakerServer{Server: ms, sick: sick}

	// store builds one copy of the store: the expired pages were fetched a
	// lease ago, the fresh ones just now, the rest never.
	store := func() *pagecache.Cache {
		clk := &manualClock{now: time.Date(1998, time.March, 23, 0, 0, 0, 0, time.UTC)}
		c := pagecache.New(srv, u.Scheme, pagecache.Config{DefaultTTL: time.Minute, Clock: clk.Now})
		warm := func(scheme string, urls []string) {
			if _, err := c.NewSession(pagecache.SessionOptions{}).FetchAllCtx(context.Background(), scheme, urls); err != nil {
				t.Fatal(err)
			}
		}
		warm(sitegen.ProfPage, expired)
		clk.advance(2 * time.Minute)
		warm(sitegen.ProfPage, fresh[:len(fresh)-1])
		warm(sitegen.ProfListPage, fresh[len(fresh)-1:])
		return c
	}
	e := New(base.Views, srv, base.Opt.Stats)
	run := func(pipelined bool, workers int) (*Answer, error) {
		e.Exec = ExecOptions{Cache: store(), Degraded: true, Pipelined: pipelined, Workers: workers}
		return e.Query(query)
	}

	want, err := run(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	ws := want.Exec
	if ws.CacheHits == 0 || ws.Revalidations == 0 || ws.Pages == 0 || ws.Stale != 1 || len(ws.FailedPages) != 1 {
		t.Fatalf("sequential ledger %+v: want hits, revalidations, fetches, one stale page and one failure", ws)
	}
	if !reflect.DeepEqual(ws.FailedPages, []string{dangling}) || !reflect.DeepEqual(ws.StalePages, []string{sick}) {
		t.Fatalf("sequential run: failed %v, stale %v; want [%s], [%s]", ws.FailedPages, ws.StalePages, dangling, sick)
	}
	// The failed access is counted in Accesses alone.
	if ws.Accesses != ws.Pages+ws.CacheHits+ws.Revalidations+ws.Stale+len(ws.FailedPages) {
		t.Fatalf("sequential ledger does not reconcile: %+v", ws)
	}
	ledger := func(st ExecStats) [6]int {
		return [6]int{st.Accesses, st.Pages, st.CacheHits, st.Revalidations, st.Stale, st.LightConnections}
	}
	for _, workers := range []int{1, 2, 8} {
		for round := 0; round < 3; round++ {
			got, err := run(true, workers)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			gs := got.Exec
			if !got.Result.Equal(want.Result) {
				t.Errorf("workers=%d: pipelined answer differs from sequential:\ngot  %v\nwant %v",
					workers, got.Result.Sorted(), want.Result.Sorted())
			}
			if ledger(gs) != ledger(ws) {
				t.Errorf("workers=%d: ledger (accesses, fetches, hits, revalidations, stale, HEADs) %v, sequential %v",
					workers, ledger(gs), ledger(ws))
			}
			if !reflect.DeepEqual(gs.FailedPages, ws.FailedPages) || !reflect.DeepEqual(gs.StalePages, ws.StalePages) {
				t.Errorf("workers=%d: failed %v, stale %v; sequential %v, %v",
					workers, gs.FailedPages, gs.StalePages, ws.FailedPages, ws.StalePages)
			}
		}
	}
}
