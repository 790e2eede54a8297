package stats

import (
	"context"
	"fmt"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
	"ulixes/internal/pagecache"
	"ulixes/internal/site"
)

// CrawlWithSizes walks the whole site breadth-first from its entry points,
// downloading and wrapping every reachable page, and returns the
// reconstructed ADM instance with the average HTML page size per
// page-scheme (for the byte-weighted cost model). It substitutes for the
// WebSQL exploration the paper assumes for statistics gathering.
//
// Pages are classified by the scheme of the link that reaches them: entry
// points have declared schemes, and every link attribute declares its
// target page-scheme.
func CrawlWithSizes(server site.Server, ws *adm.Scheme) (*adm.Instance, map[string]float64, error) {
	ctx := context.Background()
	sess := pagecache.New(server, ws, pagecache.Config{DefaultTTL: pagecache.Forever}).NewSession(pagecache.SessionOptions{})
	inst := adm.NewInstance(ws)
	bytesBy := make(map[string]float64)
	countBy := make(map[string]float64)
	err := ws.Walk(func(scheme, url string) (nested.Tuple, error) {
		before := sess.Stats().Bytes
		tup, err := sess.FetchCtx(ctx, scheme, url)
		if err != nil {
			return nested.Tuple{}, fmt.Errorf("stats: crawl %s (%s): %w", url, scheme, err)
		}
		if err := inst.AddPage(scheme, tup); err != nil {
			return nested.Tuple{}, err
		}
		// The walk is sequential and visits each URL once, so the byte
		// delta is this page's size.
		bytesBy[scheme] += float64(sess.Stats().Bytes - before)
		countBy[scheme]++
		return tup, nil
	})
	if err != nil {
		return nil, nil, err
	}
	avg := make(map[string]float64, len(bytesBy))
	for scheme, total := range bytesBy {
		avg[scheme] = total / countBy[scheme]
	}
	return inst, avg, nil
}

// CollectSite crawls the site and derives its statistics in one step,
// returning both the statistics and the number of pages downloaded (the
// cost of the exploration, which the paper amortizes by updating statistics
// "on a regular basis").
func CollectSite(server site.Server, ws *adm.Scheme) (*Stats, int, error) {
	inst, sizes, err := CrawlWithSizes(server, ws)
	if err != nil {
		return nil, 0, err
	}
	st := CollectInstance(inst)
	st.PageBytes = sizes
	return st, inst.TotalPages(), nil
}
