package site

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Handler serves a MemSite over real HTTP. Pages are addressed by their
// full original URL passed in the "u" query parameter (the simulated site
// uses absolute URLs on a fictional host), or by path for direct browsing.
// GET returns the HTML with a Last-Modified header; HEAD returns only the
// header — the "light connection" of §8. Only a genuinely missing page maps
// to 404; any other site error (an internal render or wrap failure) is a
// 500, so clients can tell "page gone" from "server sick".
func Handler(ms *MemSite) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		target := r.URL.Query().Get("u")
		if target == "" {
			target = r.URL.Path
		}
		var page Page
		var err error
		switch r.Method {
		case http.MethodHead:
			var m Meta
			m, err = ms.Head(target)
			page.LastModified = m.LastModified
		case http.MethodGet:
			page, err = ms.Get(target)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				http.NotFound(w, r)
			} else {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Last-Modified", page.LastModified.UTC().Format(http.TimeFormat))
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if r.Method == http.MethodGet {
			io.WriteString(w, page.HTML)
		}
	})
}

// DefaultHTTPTimeout bounds a default HTTPServer request end to end; a
// remote site that accepts the connection and never answers must not hang a
// query forever.
const DefaultHTTPTimeout = 30 * time.Second

// defaultHTTPClient is the shared client used when none is injected. Unlike
// http.DefaultClient it carries an explicit timeout.
var defaultHTTPClient = &http.Client{Timeout: DefaultHTTPTimeout}

// DefaultRetryAfter is the wait before retrying a 429/503 response that
// carries no (or an unparsable) Retry-After hint.
const DefaultRetryAfter = time.Second

// HTTPServer adapts a real HTTP endpoint (serving Handler) to the Server
// interface, so the whole query stack can run over genuine network sockets.
type HTTPServer struct {
	// Base is the HTTP base URL of the endpoint, e.g. a httptest server URL.
	Base string
	// Client is the HTTP client; a shared client with DefaultHTTPTimeout
	// if nil.
	Client *http.Client
	// Retries is how many extra attempts a 429 or 503 response earns before
	// the status becomes an error. An overloaded ulixesd sheds load with
	// exactly those statuses; honoring them here means a workload driver
	// waits out a burst instead of failing. 0 keeps the old fail-fast
	// behavior.
	Retries int
	// Sleeper waits between retry attempts (honoring the response's
	// Retry-After delta-seconds hint, DefaultRetryAfter when absent);
	// StdSleeper if nil. Tests inject InstantSleeper to assert the backoff
	// schedule without waiting it out.
	Sleeper Sleeper
}

func (h *HTTPServer) client() *http.Client {
	if h.Client != nil {
		return h.Client
	}
	return defaultHTTPClient
}

func (h *HTTPServer) sleeper() Sleeper {
	if h.Sleeper != nil {
		return h.Sleeper
	}
	return StdSleeper()
}

// overloaded reports a status that signals pressure, not permanence: the
// server is asking the client to come back, so a retry can succeed.
func overloaded(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// retryAfter extracts the response's Retry-After delta-seconds hint. Only
// the integer form is parsed (it is what ulixesd and most load shedders
// send); the HTTP-date form and garbage both fall back to DefaultRetryAfter.
func retryAfter(resp *http.Response) time.Duration {
	if v := strings.TrimSpace(resp.Header.Get("Retry-After")); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return DefaultRetryAfter
}

// do issues the request, retrying 429/503 responses up to h.Retries times
// with Retry-After-guided waits. Any returned response's body is open and
// owned by the caller.
func (h *HTTPServer) do(method, endpoint string) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		var resp *http.Response
		var err error
		if method == http.MethodHead {
			resp, err = h.client().Head(endpoint)
		} else {
			resp, err = h.client().Get(endpoint)
		}
		if err != nil {
			return nil, err
		}
		if !overloaded(resp.StatusCode) || attempt >= h.Retries {
			return resp, nil
		}
		wait := retryAfter(resp)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ctx := context.Background() //lint:allow noctxbg Get/Head are the context-free legacy Server surface
		if err := h.sleeper().Sleep(ctx, wait); err != nil {
			return nil, err
		}
	}
}

func (h *HTTPServer) endpoint(pageURL string) string {
	return strings.TrimRight(h.Base, "/") + "/?u=" + url.QueryEscape(pageURL)
}

// Get implements Server over HTTP GET.
func (h *HTTPServer) Get(pageURL string) (Page, error) {
	resp, err := h.do(http.MethodGet, h.endpoint(pageURL))
	if err != nil {
		return Page{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return Page{}, fmt.Errorf("%w: %s", ErrNotFound, pageURL)
	}
	if resp.StatusCode != http.StatusOK {
		return Page{}, fmt.Errorf("site: GET %s: status %s", pageURL, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return Page{}, err
	}
	return Page{HTML: string(body), LastModified: parseLastModified(resp)}, nil
}

// Head implements Server over HTTP HEAD — the light connection.
func (h *HTTPServer) Head(pageURL string) (Meta, error) {
	resp, err := h.do(http.MethodHead, h.endpoint(pageURL))
	if err != nil {
		return Meta{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return Meta{}, fmt.Errorf("%w: %s", ErrNotFound, pageURL)
	}
	if resp.StatusCode != http.StatusOK {
		return Meta{}, fmt.Errorf("site: HEAD %s: status %s", pageURL, resp.Status)
	}
	return Meta{LastModified: parseLastModified(resp)}, nil
}

func parseLastModified(resp *http.Response) time.Time {
	if v := resp.Header.Get("Last-Modified"); v != "" {
		if t, err := http.ParseTime(v); err == nil {
			return t
		}
	}
	return time.Time{}
}
