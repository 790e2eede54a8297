package site

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ulixes/internal/nested"
	"ulixes/internal/sitegen"
)

func testSite(t *testing.T) (*sitegen.University, *MemSite) {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := NewMemSite(u.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	return u, ms
}

func TestMemSiteServesAllPages(t *testing.T) {
	u, ms := testSite(t)
	if ms.Len() != u.Instance.TotalPages() {
		t.Errorf("site serves %d pages, instance has %d", ms.Len(), u.Instance.TotalPages())
	}
	p, err := ms.Get(sitegen.UnivProfListURL)
	if err != nil {
		t.Fatal(err)
	}
	if p.HTML == "" || p.LastModified.IsZero() {
		t.Error("page should carry HTML and a modification time")
	}
	if name, ok := ms.SchemeOf(sitegen.UnivProfListURL); !ok || name != sitegen.ProfListPage {
		t.Errorf("SchemeOf = %q %v", name, ok)
	}
	if _, ok := ms.SchemeOf("http://nope/"); ok {
		t.Error("SchemeOf of absent URL should fail")
	}
	if len(ms.URLs()) != ms.Len() {
		t.Error("URLs() length mismatch")
	}
}

func TestMemSiteNotFound(t *testing.T) {
	_, ms := testSite(t)
	if _, err := ms.Get("http://univ.example.edu/ghost.html"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get: err = %v, want ErrNotFound", err)
	}
	if _, err := ms.Head("http://univ.example.edu/ghost.html"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Head: err = %v, want ErrNotFound", err)
	}
}

func TestCounters(t *testing.T) {
	_, ms := testSite(t)
	c := ms.Counters()
	if c.Gets() != 0 || c.Heads() != 0 {
		t.Error("counters should start at zero")
	}
	ms.Get(sitegen.UnivHomeURL)
	ms.Get(sitegen.UnivHomeURL)
	ms.Get(sitegen.UnivProfListURL)
	ms.Head(sitegen.UnivHomeURL)
	if c.Gets() != 3 {
		t.Errorf("gets = %d", c.Gets())
	}
	if c.DistinctGets() != 2 {
		t.Errorf("distinct gets = %d", c.DistinctGets())
	}
	if c.Heads() != 1 {
		t.Errorf("heads = %d", c.Heads())
	}
	c.Reset()
	if c.Gets() != 0 || c.Heads() != 0 || c.DistinctGets() != 0 {
		t.Error("reset failed")
	}
	// Failed lookups must not count as accesses.
	ms.Get("http://ghost/")
	ms.Head("http://ghost/")
	if c.Gets() != 0 || c.Heads() != 0 {
		t.Error("failed accesses should not be counted")
	}
}

func TestLogicalClockMonotonic(t *testing.T) {
	c := LogicalClock()
	a, b := c(), c()
	if !b.After(a) {
		t.Error("clock must advance")
	}
}

func TestUpdateTouchRemove(t *testing.T) {
	u, ms := testSite(t)
	url := sitegen.UnivHomeURL
	before, _ := ms.Head(url)
	// Touch bumps modification time.
	if !ms.Touch(url) {
		t.Fatal("touch failed")
	}
	after, _ := ms.Head(url)
	if !after.LastModified.After(before.LastModified) {
		t.Error("touch should bump Last-Modified")
	}
	if ms.Touch("http://ghost/") {
		t.Error("touch of absent page should fail")
	}
	// UpdatePage replaces content.
	tup, _ := u.Instance.Page(sitegen.HomePage, url)
	tup = tup.With("Title", nested.TextValue("New Title"))
	if err := ms.UpdatePage(sitegen.HomePage, tup); err != nil {
		t.Fatal(err)
	}
	p, _ := ms.Get(url)
	if !contains(p.HTML, "New Title") {
		t.Error("update should re-render the page")
	}
	if err := ms.UpdatePage("Nope", tup); err == nil {
		t.Error("update with unknown scheme should fail")
	}
	// RemovePage deletes.
	if !ms.RemovePage(url) {
		t.Fatal("remove failed")
	}
	if _, err := ms.Get(url); !errors.Is(err, ErrNotFound) {
		t.Error("removed page should be gone")
	}
	if ms.RemovePage(url) {
		t.Error("double remove should fail")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestTransportWrapsPages(t *testing.T) {
	u, ms := testSite(t)
	tr := NewTransport(ms, u.Scheme, RetryPolicy{}, nil, 0)
	got, traffic, err := tr.Get(context.Background(), sitegen.ProfListPage, sitegen.UnivProfListURL)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := u.Instance.Page(sitegen.ProfListPage, sitegen.UnivProfListURL)
	if !got.Tuple.Equal(want) {
		t.Errorf("fetched tuple differs from instance:\n got %v\nwant %v", got.Tuple, want)
	}
	raw, _ := ms.Get(sitegen.UnivProfListURL)
	if got.Size != len(raw.HTML) || !got.LastModified.Equal(raw.LastModified) {
		t.Errorf("Fetched size/date = %d/%v, want %d/%v", got.Size, got.LastModified, len(raw.HTML), raw.LastModified)
	}
	if traffic != (Traffic{}) {
		t.Errorf("a clean GET reported traffic %+v", traffic)
	}
	m, traffic, err := tr.Head(context.Background(), sitegen.UnivProfListURL)
	if err != nil || !m.LastModified.Equal(raw.LastModified) {
		t.Errorf("Head = %v, %v; want %v", m.LastModified, err, raw.LastModified)
	}
	if traffic != (Traffic{Heads: 1}) {
		t.Errorf("a clean HEAD reported traffic %+v, want one light connection", traffic)
	}
}

func TestTransportErrors(t *testing.T) {
	u, ms := testSite(t)
	tr := NewTransport(ms, u.Scheme, RetryPolicy{}, nil, 0)
	ctx := context.Background()
	if _, _, err := tr.Get(ctx, sitegen.ProfPage, "http://ghost/"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
	if _, _, err := tr.Get(ctx, "Nope", sitegen.UnivHomeURL); err == nil {
		t.Error("unknown scheme should error")
	}
	// Wrapping under the wrong scheme fails (marker mismatch).
	if _, _, err := tr.Get(ctx, sitegen.ProfPage, sitegen.UnivHomeURL); err == nil {
		t.Error("scheme mismatch should error")
	}
}

func TestHTTPAdapterEndToEnd(t *testing.T) {
	u, ms := testSite(t)
	srv := httptest.NewServer(Handler(ms))
	defer srv.Close()
	hs := &HTTPServer{Base: srv.URL}

	// GET round trip.
	p, err := hs.Get(sitegen.UnivProfListURL)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := ms.Get(sitegen.UnivProfListURL)
	if p.HTML != direct.HTML {
		t.Error("HTTP GET should return the same HTML")
	}
	if p.LastModified.IsZero() {
		t.Error("Last-Modified should round trip")
	}
	// HEAD round trip.
	m, err := hs.Head(sitegen.UnivProfListURL)
	if err != nil {
		t.Fatal(err)
	}
	if m.LastModified.IsZero() {
		t.Error("HEAD should carry Last-Modified")
	}
	// Not found.
	if _, err := hs.Get("http://ghost/"); !errors.Is(err, ErrNotFound) {
		t.Errorf("GET ghost err = %v", err)
	}
	if _, err := hs.Head("http://ghost/"); !errors.Is(err, ErrNotFound) {
		t.Errorf("HEAD ghost err = %v", err)
	}
	// The whole fetch+wrap pipeline over real HTTP.
	got, _, err := NewTransport(hs, u.Scheme, RetryPolicy{}, nil, 0).Get(context.Background(), sitegen.ProfListPage, sitegen.UnivProfListURL)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := u.Instance.Page(sitegen.ProfListPage, sitegen.UnivProfListURL)
	if !got.Tuple.Equal(want) {
		t.Error("fetch over HTTP should wrap to the instance tuple")
	}
}

// TestHTTPAdapterRetryAfterBackoff: 429/503 responses with a Retry-After
// hint are waited out and retried instead of failing the fetch, up to the
// configured attempt bound; without retries the old fail-fast behavior
// stands.
func TestHTTPAdapterRetryAfterBackoff(t *testing.T) {
	_, ms := testSite(t)
	inner := Handler(ms)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
		case 2: // no hint: the default wait applies
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			inner.ServeHTTP(w, r)
		}
	}))
	defer srv.Close()

	sl := &InstantSleeper{}
	hs := &HTTPServer{Base: srv.URL, Retries: 3, Sleeper: sl}
	p, err := hs.Get(sitegen.UnivProfListURL)
	if err != nil {
		t.Fatalf("Get after backoff: %v", err)
	}
	if p.HTML == "" {
		t.Fatal("expected the page after retries")
	}
	want := []time.Duration{2 * time.Second, DefaultRetryAfter}
	if got := sl.Slept(); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("backoff schedule = %v, want %v", got, want)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("calls = %d, want 3", n)
	}

	// Retries exhausted: the last overloaded status becomes the error.
	calls.Store(0)
	exhausted := &HTTPServer{Base: srv.URL, Retries: 1, Sleeper: sl}
	if _, err := exhausted.Get(sitegen.UnivProfListURL); err == nil ||
		!strings.Contains(err.Error(), "503") {
		t.Errorf("exhausted retries err = %v, want a 503 status error", err)
	}

	// Retries 0 keeps fail-fast, and HEAD shares the retry path.
	calls.Store(0)
	failFast := &HTTPServer{Base: srv.URL, Sleeper: sl}
	if _, err := failFast.Head(sitegen.UnivProfListURL); err == nil ||
		!strings.Contains(err.Error(), "429") {
		t.Errorf("fail-fast err = %v, want a 429 status error", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("fail-fast calls = %d, want 1", n)
	}
}
