package nalg

import (
	"context"
	"errors"
	"fmt"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
	"ulixes/internal/site"
)

// Source supplies pages during evaluation. The virtual-view engine backs it
// with a page-store session; the materialized-view engine backs it with the
// local store plus the URLCheck protocol of §8.
//
// The pipelined evaluator (EvalWithOptions) calls EntryPage and FollowPages
// from concurrent goroutines; implementations must be safe for concurrent
// use and must keep their measured access counts deterministic under
// concurrency (per-URL deduplication / singleflight).
type Source interface {
	// EntryPage returns the single page of an entry point.
	EntryPage(scheme, url string) (nested.Tuple, error)
	// FollowPages returns the pages of the named scheme at the given URLs.
	// A URL whose page no longer exists may be silently omitted (the link
	// dangles and the navigation join simply produces nothing for it).
	FollowPages(scheme string, urls []string) ([]nested.Tuple, error)
}

// FetcherSource adapts a site.PageSource — a pagecache.Session, one query's
// resolve-once view of a private or shared page store — to the Source
// interface.
type FetcherSource struct {
	F site.PageSource
	// Ctx, when non-nil, bounds every page access the source issues: the
	// caller's request deadline and cancellation propagate through the
	// evaluator down to the fetch layer.
	Ctx context.Context
}

func (s FetcherSource) context() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background() //lint:allow noctxbg context-free Source compatibility
}

// EntryPage implements Source.
func (s FetcherSource) EntryPage(scheme, url string) (nested.Tuple, error) {
	return s.F.FetchCtx(s.context(), scheme, url)
}

// FollowPages implements Source.
func (s FetcherSource) FollowPages(scheme string, urls []string) ([]nested.Tuple, error) {
	return s.F.FetchAllCtx(s.context(), scheme, urls)
}

// qualifyPage renames a page tuple's attributes to alias-qualified column
// names. Stages that qualify many pages share one nested.Qualifier so the
// qualified names slice is computed once per page shape.
func qualifyPage(t nested.Tuple, alias string) nested.Tuple {
	return nested.NewQualifier(alias).Apply(t)
}

// Eval evaluates a computable expression against a page source. The
// expression must type-check against the web scheme; evaluation reports an
// error otherwise.
func Eval(e Expr, ws *adm.Scheme, src Source) (*nested.Relation, error) {
	if _, err := InferSchema(e, ws); err != nil {
		return nil, err
	}
	return eval(e, ws, src)
}

func eval(e Expr, ws *adm.Scheme, src Source) (*nested.Relation, error) {
	switch x := e.(type) {
	case *ExtScan:
		return nil, fmt.Errorf("nalg: cannot evaluate external relation %q", x.Relation)

	case *EntryScan:
		t, err := src.EntryPage(x.Scheme, x.URL)
		if err != nil {
			return nil, fmt.Errorf("nalg: entry point %s: %w", x.Scheme, err)
		}
		rel := nested.NewRelation(nil)
		rel.Insert(qualifyPage(t, x.EffAlias()))
		return rel, nil

	case *Unnest:
		in, err := eval(x.In, ws, src)
		if err != nil {
			return nil, err
		}
		return in.Unnest(x.Attr)

	case *Follow:
		in, err := eval(x.In, ws, src)
		if err != nil {
			return nil, err
		}
		return evalFollow(x, in, src)

	case *Select:
		in, err := eval(x.In, ws, src)
		if err != nil {
			return nil, err
		}
		return in.Select(x.Pred)

	case *Project:
		in, err := eval(x.In, ws, src)
		if err != nil {
			return nil, err
		}
		return in.Project(x.Cols)

	case *Join:
		l, err := eval(x.L, ws, src)
		if err != nil {
			return nil, err
		}
		r, err := eval(x.R, ws, src)
		if err != nil {
			return nil, err
		}
		return l.Join(r, x.Conds)

	case *Rename:
		in, err := eval(x.In, ws, src)
		if err != nil {
			return nil, err
		}
		return in.Rename(x.Map)

	default:
		return nil, fmt.Errorf("nalg: unknown expression node %T", e)
	}
}

// degradedFollow reports whether a FollowPages error is a graceful partial
// result (the session's degraded mode): the reachable pages were returned
// and the unreachable URLs simply dangle, exactly like links to pages that
// no longer exist. The session has already recorded the failures for
// ExecStats, so evaluation proceeds on what arrived.
func degradedFollow(err error) bool {
	var pe *site.PartialError
	return errors.As(err, &pe)
}

// evalFollow expands each input tuple with the page its link column points
// to: the distinct link URLs are fetched (this is where network cost is
// paid), and the input is joined with the fetched pages on link = URL.
func evalFollow(x *Follow, in *nested.Relation, src Source) (*nested.Relation, error) {
	urlVals, err := in.DistinctValues(x.Link)
	if err != nil {
		return nil, err
	}
	urls := make([]string, len(urlVals))
	for i, v := range urlVals {
		urls[i] = v.String()
	}
	pages, err := src.FollowPages(x.Target, urls)
	if err != nil && !degradedFollow(err) {
		return nil, fmt.Errorf("nalg: follow %s: %w", x.Link, err)
	}
	qual := nested.NewQualifier(x.EffAlias())
	byURL := make(map[string]nested.Tuple, len(pages))
	for _, p := range pages {
		u, ok := p.Get(adm.URLAttr)
		if !ok || u.IsNull() {
			return nil, fmt.Errorf("nalg: follow %s: target page without URL", x.Link)
		}
		byURL[u.String()] = qual.Apply(p)
	}
	out := nested.NewRelation(nil)
	for _, t := range in.Tuples() {
		lv, ok := t.Get(x.Link)
		if !ok {
			return nil, fmt.Errorf("nalg: follow: no column %q", x.Link)
		}
		if lv.IsNull() {
			continue
		}
		page, ok := byURL[lv.String()]
		if !ok {
			continue // dangling link: navigation yields nothing for it
		}
		joined, err := t.Concat(page)
		if err != nil {
			return nil, err
		}
		out.Insert(joined)
	}
	return out, nil
}
