package stats

import (
	"context"
	"fmt"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
	"ulixes/internal/pagecache"
	"ulixes/internal/site"
)

// Crawl walks the whole site breadth-first from its entry points,
// downloading and wrapping every reachable page, and returns the
// reconstructed ADM instance. It substitutes for the WebSQL exploration the
// paper assumes for statistics gathering, and is also used to bootstrap the
// materialized view of §8.
//
// Pages are classified by the scheme of the link that reaches them: entry
// points have declared schemes, and every link attribute declares its
// target page-scheme.
func Crawl(server site.Server, ws *adm.Scheme) (*adm.Instance, error) {
	inst, _, err := CrawlWithSizes(server, ws)
	return inst, err
}

// CrawlWithSizes is Crawl, additionally returning the average HTML page
// size per page-scheme (for the byte-weighted cost model).
func CrawlWithSizes(server site.Server, ws *adm.Scheme) (*adm.Instance, map[string]float64, error) {
	ctx := context.Background()
	sess := pagecache.New(server, ws, pagecache.Config{DefaultTTL: pagecache.Forever}).NewSession(pagecache.SessionOptions{})
	inst := adm.NewInstance(ws)
	type item struct{ scheme, url string }
	var queue []item
	seen := make(map[string]bool)
	for _, ep := range ws.Entry {
		queue = append(queue, item{ep.Scheme, ep.URL})
		seen[ep.URL] = true
	}
	links := ws.Links()
	bytesBy := make(map[string]float64)
	countBy := make(map[string]float64)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		before := sess.Stats().Bytes
		tup, err := sess.FetchCtx(ctx, cur.scheme, cur.url)
		if err != nil {
			return nil, nil, fmt.Errorf("stats: crawl %s (%s): %w", cur.url, cur.scheme, err)
		}
		if err := inst.AddPage(cur.scheme, tup); err != nil {
			return nil, nil, err
		}
		// The crawl is sequential and visits each URL once, so the byte
		// delta is this page's size.
		bytesBy[cur.scheme] += float64(sess.Stats().Bytes - before)
		countBy[cur.scheme]++
		for _, ref := range links {
			if ref.Scheme != cur.scheme {
				continue
			}
			tgt, err := ws.LinkTarget(ref)
			if err != nil {
				return nil, nil, err
			}
			for _, v := range adm.PathValues(tup, ref.Path) {
				if _, ok := v.(nested.LinkValue); !ok {
					continue
				}
				u := v.String()
				if !seen[u] {
					seen[u] = true
					queue = append(queue, item{tgt, u})
				}
			}
		}
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
