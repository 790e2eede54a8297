package site

import (
	"context"

	"ulixes/internal/nested"
)

// PageSource is the page-supply abstraction threaded through the query
// system: anything that can deliver wrapped pages by page-scheme and URL.
// The one implementation is pagecache.Session, a query's view of a page
// store: a private store when each query downloads and counts its own pages
// afresh, a shared one when physical fetches are deduplicated across queries
// while per-query access counts stay exact.
//
// Implementations must be safe for concurrent use: the pipelined evaluator
// calls both methods from concurrent goroutines.
//
// The session also has the network-free half of FetchAllCtx on its own,
// pagecache.Session.FetchReady, through which nalg.FetcherSource resolves
// store hits before the pipelined evaluator spends a fetch task. It is not
// part of this interface: a PageSource without it, such as a decorator
// around a session, resolves nothing inline and sends every access through
// FetchAllCtx.
type PageSource interface {
	// FetchCtx returns the page at url wrapped as an instance of the named
	// page-scheme.
	FetchCtx(ctx context.Context, schemeName, url string) (nested.Tuple, error)
	// FetchAllCtx returns the pages at the given URLs, preserving input
	// order. In degraded implementations unreachable pages may be left out,
	// reported through a *PartialError alongside the partial result.
	FetchAllCtx(ctx context.Context, schemeName string, urls []string) ([]nested.Tuple, error)
}
