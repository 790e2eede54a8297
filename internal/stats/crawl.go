package stats

import (
	"context"
	"errors"
	"fmt"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
	"ulixes/internal/pagecache"
	"ulixes/internal/site"
)

// CrawlWithSizes walks the whole site breadth-first from its entry points,
// downloading and wrapping every reachable page into the page store c, and
// returns the reconstructed ADM instance with the average HTML page size per
// page-scheme (for the byte-weighted cost model). It substitutes for the
// WebSQL exploration the paper assumes for statistics gathering, and it is
// the initial crawl of a materialized view (§8).
//
// Pages are classified by the scheme of the link that reaches them: entry
// points have declared schemes, and every link attribute declares its
// target page-scheme.
//
// Each breadth-first level is fetched as one batch per page-scheme through
// one session of c, so up to the store's Workers GETs are in flight at
// once, and its pages are added to the instance in the walk's order: the
// instance, and so the statistics, are the ones a crawl of one page at a
// time builds. The sizes count the bytes this crawl downloaded, so they are
// exact over an empty store. A page the site does not have is a dangling
// link, as navigation treats it: absent from the instance, with no links to
// follow. A missing entry point, or any other failure, fails the crawl.
func CrawlWithSizes(c *pagecache.Cache, ws *adm.Scheme) (*adm.Instance, map[string]float64, error) {
	ctx := context.Background()
	sess := c.NewSession(pagecache.SessionOptions{Degraded: true})
	inst := adm.NewInstance(ws)
	bytesBy := make(map[string]float64)
	countBy := make(map[string]float64)
	err := ws.Walk(func(level []adm.PageRef) ([]nested.Tuple, error) {
		tuples := make([]nested.Tuple, len(level))
		for _, b := range byScheme(level) {
			urls := make([]string, len(b.idx))
			for k, i := range b.idx {
				urls[k] = level[i].URL
			}
			// Batches run one after another, so the byte delta is this
			// scheme's pages.
			before := sess.Stats().Bytes
			got, err := sess.FetchAllCtx(ctx, b.scheme, urls)
			if err := dangling(err, ws, b.scheme); err != nil {
				return nil, fmt.Errorf("stats: crawl of %d %s pages: %w", len(urls), b.scheme, err)
			}
			bytesBy[b.scheme] += float64(sess.Stats().Bytes - before)
			// got holds the pages found, in order.
			for k, i := range b.idx {
				if len(got) > 0 && got[0].MustGet(adm.URLAttr).String() == urls[k] {
					tuples[i], got = got[0], got[1:]
				} else if ws.IsEntry(level[i]) {
					return nil, fmt.Errorf("stats: entry point %s: %w", urls[k], site.ErrNotFound)
				}
			}
		}
		for i, p := range level {
			if tuples[i].Arity() == 0 {
				continue
			}
			if err := inst.AddPage(p.Scheme, tuples[i]); err != nil {
				return nil, err
			}
			countBy[p.Scheme]++
		}
		return tuples, nil
	})
	if err != nil {
		return nil, nil, err
	}
	avg := make(map[string]float64, len(countBy))
	for scheme, n := range countBy {
		avg[scheme] = bytesBy[scheme] / n
	}
	return inst, avg, nil
}

// schemeBatch is the pages of one page-scheme in a level: their indices, in
// level order.
type schemeBatch struct {
	scheme string
	idx    []int
}

// byScheme splits a level into one batch per page-scheme, in the order the
// schemes first appear.
func byScheme(level []adm.PageRef) []schemeBatch {
	var out []schemeBatch
	pos := make(map[string]int)
	for i, p := range level {
		k, ok := pos[p.Scheme]
		if !ok {
			k = len(out)
			pos[p.Scheme] = k
			out = append(out, schemeBatch{scheme: p.Scheme})
		}
		out[k].idx = append(out[k].idx, i)
	}
	return out
}

// dangling accepts a degraded batch's error when every page it left out is
// a dangling link — not found on the site and not an entry point. Any other
// error is returned as it is.
func dangling(err error, ws *adm.Scheme, scheme string) error {
	var pe *site.PartialError
	if err == nil || !errors.As(err, &pe) {
		return err
	}
	for _, f := range pe.Failures {
		if !errors.Is(f.Err, site.ErrNotFound) || ws.IsEntry(adm.PageRef{Scheme: scheme, URL: f.URL}) {
			return err
		}
	}
	return nil
}

// CollectSite crawls the site and derives its statistics in one step,
// returning both the statistics and the number of pages downloaded (the
// cost of the exploration, which the paper amortizes by updating statistics
// "on a regular basis").
func CollectSite(server site.Server, ws *adm.Scheme) (*Stats, int, error) {
	inst, sizes, err := CrawlWithSizes(pagecache.New(server, ws, pagecache.Config{DefaultTTL: pagecache.Forever}), ws)
	if err != nil {
		return nil, 0, err
	}
	st := CollectInstance(inst)
	st.PageBytes = sizes
	return st, inst.TotalPages(), nil
}
