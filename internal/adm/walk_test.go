package adm

import (
	"errors"
	"slices"
	"testing"

	"ulixes/internal/nested"
)

// TestWalk: the walk fetches every reachable page once, breadth-first, as
// the page-scheme of the link that reaches it, one call per level, and stops
// at a fetch error.
func TestWalk(t *testing.T) {
	in := miniInstance(t)
	var levels [][]string
	err := in.Scheme.Walk(func(level []PageRef) ([]nested.Tuple, error) {
		var names []string
		out := make([]nested.Tuple, len(level))
		for i, p := range level {
			names = append(names, p.Scheme+" "+p.URL)
			tup, ok := in.Page(p.Scheme, p.URL)
			if !ok {
				t.Fatalf("walk fetched %s as %s, which it is not", p.URL, p.Scheme)
			}
			out[i] = tup
		}
		levels = append(levels, names)
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// http://x/i/2 is linked from the list and from item 1: fetched once,
	// in the level the list reaches it.
	want := [][]string{
		{"ListPage http://x/list.html"},
		{"ItemPage http://x/i/1", "ItemPage http://x/i/2"},
	}
	if !slices.EqualFunc(levels, want, slices.Equal[[]string]) {
		t.Errorf("visited levels %q, want %q", levels, want)
	}

	boom := errors.New("boom")
	calls := 0
	err = in.Scheme.Walk(func(level []PageRef) ([]nested.Tuple, error) {
		calls++
		return nil, boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Errorf("failing fetch: err=%v after %d calls, want boom after 1", err, calls)
	}
}

// TestWalkSkipsAbsentPages: a zero tuple is a page with no links, so the
// walk goes on without the pages only it reaches.
func TestWalkSkipsAbsentPages(t *testing.T) {
	in := miniInstance(t)
	var visited []string
	err := in.Scheme.Walk(func(level []PageRef) ([]nested.Tuple, error) {
		out := make([]nested.Tuple, len(level))
		for i, p := range level {
			visited = append(visited, p.URL)
			if p.Scheme == "ListPage" {
				continue // the list is absent: nothing it links is reached
			}
			out[i], _ = in.Page(p.Scheme, p.URL)
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"http://x/list.html"}; !slices.Equal(visited, want) {
		t.Errorf("visited %q, want %q", visited, want)
	}
}
