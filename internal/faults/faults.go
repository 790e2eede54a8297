// Package faults is a deterministic fault-injection layer for the simulated
// web: a site.Server wrapper that makes pages time out, vanish, come back
// truncated or malformed, and fail transiently — the conditions the paper's
// query system faced against live 1997 web sites, which the in-memory
// simulator is otherwise too polite to reproduce.
//
// Every injection decision is a pure function of (seed, URL, attempt
// number, rule index), so a chaos run is exactly reproducible regardless of
// goroutine interleaving: the k-th GET of a given URL sees the same fault
// no matter which worker issues it or when. Rules fire either on a scripted
// schedule (the first N attempts of each matching URL) or at a seeded
// per-attempt probability; both compose into the deterministic chaos tests
// that gate the resilient fetch path.
//
// The package never reads the ambient clock: injected latency is delegated
// to an injectable sleep function (nil means latency is recorded but not
// slept), and stalls block on the caller's context rather than on a timer —
// so chaos tests run instantly and the nowallclock analyzer stays clean.
package faults

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"ulixes/internal/site"
)

// ErrInjected marks a transient injected failure. It never wraps
// site.ErrNotFound, so the transport classifies it as retryable.
var ErrInjected = errors.New("faults: injected transient failure")

// Kind enumerates the fault behaviors a rule can inject.
type Kind int

// Fault kinds.
const (
	// Transient fails the GET with a retryable error.
	Transient Kind = iota
	// Latency delays the GET by the rule's Latency before serving it.
	Latency
	// Stall blocks the GET until the caller's context is canceled — the
	// "server accepts the connection and never answers" failure. It is only
	// recoverable through the transport's per-attempt deadline.
	Stall
	// Truncate serves the page cut off mid-document, as a dropped
	// connection would.
	Truncate
	// Malform serves structurally corrupted HTML that no longer wraps.
	Malform
	// NotFound fails the access with site.ErrNotFound — a permanently
	// vanished page. It applies to HEAD as well as GET.
	NotFound
)

// String renders the kind name.
func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case Latency:
		return "latency"
	case Stall:
		return "stall"
	case Truncate:
		return "truncate"
	case Malform:
		return "malform"
	case NotFound:
		return "notfound"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Rule is one fault-injection rule. A rule matches a URL when Pattern is a
// substring of it (the empty pattern matches every URL). For each access of
// a matching URL the rule fires if the attempt index is below First (the
// scripted schedule) or if the seeded coin with probability Rate comes up
// heads; rules are consulted in order and the first one that fires wins.
type Rule struct {
	// Pattern is matched as a substring of the URL; "" matches all.
	Pattern string
	// Kind selects the injected behavior.
	Kind Kind
	// First makes the rule fire on each matching URL's first N attempts —
	// a reproducible schedule: with First=2 and 3 retries, every page fails
	// twice and then succeeds. 0 disables the schedule.
	First int
	// Rate is the per-attempt firing probability in [0,1], decided by a
	// hash of (seed, URL, attempt, rule index) — deterministic under any
	// concurrency. 0 disables the coin.
	Rate float64
	// Latency is the injected delay for Latency rules.
	Latency time.Duration
}

func (r Rule) matches(url string) bool {
	return r.Pattern == "" || strings.Contains(url, r.Pattern)
}

// fires reports whether the rule fires on the given attempt of the URL.
func (r Rule) fires(seed uint64, url string, attempt, idx int) bool {
	if !r.matches(url) {
		return false
	}
	if r.First > 0 && attempt < r.First {
		return true
	}
	return r.Rate > 0 && coin(seed, url, attempt, idx) < r.Rate
}

// coin maps (seed, url, attempt, rule) to a uniform float in [0,1) with a
// 64-bit FNV hash: cheap, stable across runs, and independent of goroutine
// scheduling. FNV's high bits barely change when only the trailing bytes
// (the attempt number) differ, which would correlate a URL's coins across
// retries — a finalizing mix restores independence, so "fails at rate p"
// really means each attempt fails at p.
func coin(seed uint64, url string, attempt, idx int) float64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(seed >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(url))
	h.Write([]byte{byte(attempt), byte(attempt >> 8), byte(idx)})
	return float64(mix64(h.Sum64())>>11) / float64(1<<53)
}

// mix64 is a murmur-style finalizer: full avalanche, so any input bit flips
// about half the output bits.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Server wraps a site.Server with deterministic fault injection. It is safe
// for concurrent use; per-URL attempt counters make the fault sequence of
// each URL independent of interleaving.
type Server struct {
	inner site.Server
	seed  uint64

	mu       sync.Mutex
	rules    []Rule
	sleep    func(time.Duration) // nil: latency recorded, not slept
	sleeper  site.Sleeper        // preferred over sleep: cancelable latency
	attempts map[string]int
	injected map[Kind]int
	faulted  map[string]bool
}

// New wraps a server with the given seed and rules.
func New(inner site.Server, seed uint64, rules ...Rule) *Server {
	return &Server{
		inner:    inner,
		seed:     seed,
		rules:    rules,
		attempts: make(map[string]int),
		injected: make(map[Kind]int),
		faulted:  make(map[string]bool),
	}
}

// SetSleep installs the function used to realize Latency faults. Leaving it
// nil (the default) keeps chaos runs instant: delays are counted but not
// slept, which is what deterministic tests want.
func (s *Server) SetSleep(fn func(time.Duration)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sleep = fn
}

// SetSleeper installs a context-aware sleeper for Latency faults, taking
// precedence over SetSleep. Unlike a plain sleep function, the delay is
// abandoned the moment the caller's context ends — a hedged request whose
// loser was canceled must not keep a goroutine parked in the fault layer.
func (s *Server) SetSleeper(slp site.Sleeper) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sleeper = slp
}

// SetRules replaces the rule set, keeping attempt counters and tallies.
// Chaos scenarios use it to make a healthy host fall sick mid-run (or
// recover), the situation the circuit breaker exists for.
func (s *Server) SetRules(rules ...Rule) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rules = append([]Rule(nil), rules...)
}

// Reset clears the attempt counters and injection tallies, replaying the
// fault schedule from the start.
func (s *Server) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempts = make(map[string]int)
	s.injected = make(map[Kind]int)
	s.faulted = make(map[string]bool)
}

// Attempts returns how many GET attempts the server has seen for the URL.
func (s *Server) Attempts(url string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attempts[url]
}

// Injected returns how many faults of the kind have been injected.
func (s *Server) Injected(k Kind) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected[k]
}

// InjectedTotal returns the total number of injected faults.
func (s *Server) InjectedTotal() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, n := range s.injected {
		total += n
	}
	return total
}

// FaultedURLs returns the sorted URLs that have had at least one fault
// injected — the ground truth a chaos experiment compares answers against.
func (s *Server) FaultedURLs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.faulted))
	for u := range s.faulted {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// decide claims the next attempt index for the key and returns the firing
// rule, if any.
func (s *Server) decide(key, url string) (Rule, bool) {
	s.mu.Lock()
	attempt := s.attempts[key]
	s.attempts[key] = attempt + 1
	var fired Rule
	ok := false
	for i, r := range s.rules {
		if r.fires(s.seed, url, attempt, i) {
			fired, ok = r, true
			s.injected[r.Kind]++
			s.faulted[url] = true
			break
		}
	}
	s.mu.Unlock()
	return fired, ok
}

// Get implements site.Server. Stall faults block forever under Get's
// context-free signature; use GetContext (site.Transport does) to
// make them recoverable.
func (s *Server) Get(url string) (site.Page, error) {
	return s.GetContext(context.Background(), url) //lint:allow noctxbg context-free site.Server compatibility
}

// GetContext is the context-aware download site.Transport prefers:
// stall faults block until ctx is canceled instead of forever.
func (s *Server) GetContext(ctx context.Context, url string) (site.Page, error) {
	rule, fired := s.decide(url, url)
	if fired {
		switch rule.Kind {
		case Transient:
			return site.Page{}, fmt.Errorf("%w: GET %s", ErrInjected, url)
		case Stall:
			<-ctx.Done()
			return site.Page{}, fmt.Errorf("faults: stalled GET %s: %w", url, ctx.Err())
		case NotFound:
			return site.Page{}, fmt.Errorf("%w: %s (injected)", site.ErrNotFound, url)
		case Latency:
			s.mu.Lock()
			sleep, sleeper := s.sleep, s.sleeper
			s.mu.Unlock()
			if sleeper != nil {
				if err := sleeper.Sleep(ctx, rule.Latency); err != nil {
					return site.Page{}, fmt.Errorf("faults: delayed GET %s: %w", url, err)
				}
			} else if sleep != nil {
				sleep(rule.Latency)
			}
		}
	}
	p, err := s.inner.Get(url) //lint:allow fetchgate the fault layer sits under the counted access path
	if err != nil {
		return site.Page{}, err
	}
	if fired {
		switch rule.Kind {
		case Truncate:
			p.HTML = truncateHTML(p.HTML)
		case Malform:
			p.HTML = malformHTML(p.HTML)
		}
	}
	return p, nil
}

// Head implements site.Server. Only NotFound and Transient rules apply to
// context-free light connections (a Stall would block forever with no way
// out); a HEAD consumes its own attempt counter so it never perturbs the
// GET schedule.
func (s *Server) Head(url string) (site.Meta, error) {
	rule, fired := s.decide("HEAD\x00"+url, url)
	if fired {
		switch rule.Kind {
		case Transient:
			return site.Meta{}, fmt.Errorf("%w: HEAD %s", ErrInjected, url)
		case NotFound:
			return site.Meta{}, fmt.Errorf("%w: %s (injected)", site.ErrNotFound, url)
		}
	}
	return s.inner.Head(url) //lint:allow fetchgate the fault layer sits under the counted access path
}

// HeadContext implements site.ContextHeadServer: the context-aware light
// connection the guard prefers. Stall rules apply here — the connection
// blocks until the caller's context ends, never beyond it — alongside the
// Transient and NotFound kinds of the plain Head.
func (s *Server) HeadContext(ctx context.Context, url string) (site.Meta, error) {
	rule, fired := s.decide("HEAD\x00"+url, url)
	if fired {
		switch rule.Kind {
		case Transient:
			return site.Meta{}, fmt.Errorf("%w: HEAD %s", ErrInjected, url)
		case Stall:
			<-ctx.Done()
			return site.Meta{}, fmt.Errorf("faults: stalled HEAD %s: %w", url, ctx.Err())
		case NotFound:
			return site.Meta{}, fmt.Errorf("%w: %s (injected)", site.ErrNotFound, url)
		case Latency:
			s.mu.Lock()
			sleeper := s.sleeper
			s.mu.Unlock()
			if sleeper != nil {
				if err := sleeper.Sleep(ctx, rule.Latency); err != nil {
					return site.Meta{}, fmt.Errorf("faults: delayed HEAD %s: %w", url, err)
				}
			}
		}
	}
	return s.inner.Head(url) //lint:allow fetchgate the fault layer sits under the counted access path
}

// truncateHTML cuts the page off mid-document — everything past the first
// third is lost, usually severing mandatory attributes so the wrapper
// reports an error rather than silently dropping rows.
func truncateHTML(html string) string {
	return html[:len(html)/3]
}

// malformHTML structurally corrupts the page: every tag opener in the
// second half is blanked, so the wrapper cannot recover the page-scheme's
// layout.
func malformHTML(html string) string {
	half := len(html) / 2
	return html[:half] + strings.ReplaceAll(html[half:], "<", " ")
}
