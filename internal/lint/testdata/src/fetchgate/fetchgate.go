// Package fetchgate is the fetchgate analyzer fixture: page accesses that
// bypass the counted access path, plus the sanctioned patterns that must
// stay clean.
package fetchgate

import (
	"context"
	"net/http"

	"ulixes/internal/adm"
	"ulixes/internal/hypertext"
	"ulixes/internal/site"
)

func rawHTTP(url string) error {
	resp, err := http.Get(url) // want `direct net/http client call http\.Get`
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

func rawHTTPHead(url string) {
	_, _ = http.Head(url) // want `direct net/http client call http\.Head`
}

func rawClient(c *http.Client, req *http.Request) {
	_, _ = c.Do(req) // want `direct net/http client call \(\*http\.Client\)\.Do`
}

func rawServerRead(srv site.Server, url string) {
	_, _ = srv.Get(url)  // want `direct page read Server\.Get`
	_, _ = srv.Head(url) // want `direct page read Server\.Head`
}

func rawMemSiteRead(ms *site.MemSite, url string) {
	_, _ = ms.Get(url) // want `direct page read MemSite\.Get`
}

func rawWrap(ps *adm.PageScheme, url, html string) {
	_, _ = hypertext.WrapPage(ps, url, html) // want `direct hypertext\.WrapPage call`
}

// counted is the sanctioned path: reads flow through a page source, or
// through the transport for code that keeps its own ledger of the traffic.
func counted(ctx context.Context, src site.PageSource, tr *site.Transport, scheme, url string) error {
	if _, err := src.FetchCtx(ctx, scheme, url); err != nil {
		return err
	}
	if _, _, err := tr.Get(ctx, scheme, url); err != nil {
		return err
	}
	_, _, err := tr.Head(ctx, url)
	return err
}

// exempted documents an intentional bypass; the driver must suppress it.
func exempted(srv site.Server, url string) {
	_, _ = srv.Get(url) //lint:allow fetchgate fixture for the exemption path
}

// serving a site is not a client call and must not be flagged.
func serve(ms *site.MemSite) http.Handler {
	return site.Handler(ms)
}
