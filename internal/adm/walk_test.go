package adm

import (
	"errors"
	"slices"
	"testing"

	"ulixes/internal/nested"
)

// TestWalk: the walk fetches every reachable page once, breadth-first, as
// the page-scheme of the link that reaches it, and stops at a fetch error.
func TestWalk(t *testing.T) {
	in := miniInstance(t)
	var visited []string
	err := in.Scheme.Walk(func(scheme, url string) (nested.Tuple, error) {
		visited = append(visited, scheme+" "+url)
		tup, ok := in.Page(scheme, url)
		if !ok {
			t.Fatalf("walk fetched %s as %s, which it is not", url, scheme)
		}
		return tup, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// http://x/i/2 is linked from the list and from item 1: fetched once.
	want := []string{"ListPage http://x/list.html", "ItemPage http://x/i/1", "ItemPage http://x/i/2"}
	if !slices.Equal(visited, want) {
		t.Errorf("visited %q, want %q", visited, want)
	}

	boom := errors.New("boom")
	calls := 0
	err = in.Scheme.Walk(func(scheme, url string) (nested.Tuple, error) {
		calls++
		return nested.Tuple{}, boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Errorf("failing fetch: err=%v after %d calls, want boom after 1", err, calls)
	}
}
