GO ?= go

.PHONY: build test race vet lint verify fuzz-smoke bench bench-json experiments chaos overload serve smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs go vet (its lostcancel pass gates context cancel discipline),
# then the project's own analyzers (see internal/lint).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/ulixes-vet ./...

# verify is the full gate: build + vet + lint + race-enabled tests.
verify:
	sh scripts/verify.sh

# fuzz-smoke runs each fuzz target briefly (seed corpus plus a short burst
# of generated inputs) so a regression in the lexer/tokenizer agreement, the
# entity-decoding inverse or the one-pass wrapper's agreement with the tree
# oracle is caught without a long fuzzing session.
# Override FUZZTIME for longer local runs, e.g. FUZZTIME=30s.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test ./internal/hypertext/ -run=NONE -fuzz=FuzzTokenize$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/hypertext/ -run=NONE -fuzz=FuzzLexer$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/hypertext/ -run=NONE -fuzz=FuzzUnescapeHTML$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/hypertext/ -run=NONE -fuzz=FuzzWrapPage$$ -fuzztime=$(FUZZTIME)

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# bench-json records the root benchmark suite as a labeled run in the
# committed trajectory file (ns/op, allocs, and the derived ns/page and
# bytes/tuple gate metrics). Override BENCH_LABEL to record e.g. "before",
# BENCH_NOTE to say what was measured, and BENCH to record part of the suite
# (BENCH=Optimize is the cold-planning pair of runs pr16-parent / pr16-change;
# BENCH='RTTSuite|PipelinedVsSequential|PreparedQuery' is PR 21's;
# BENCH='WarmSuite|RTTSuite' is prepared-plans-parent / prepared-plans-change
# and inline-hits-parent / inline-hits-change, store hits resolved without a
# fetch task; BENCH=CollectSite is crawl-parent / crawl-change, the
# statistics crawl; BENCH=RTTSuite is wrap-parent / wrap-change, pages
# wrapped in one pass with no element tree).
BENCH_LABEL ?= after
BENCH_NOTE ?=
BENCH ?= .
bench-json:
	$(GO) test -run=NONE -bench='$(BENCH)' -benchmem -benchtime=3x . \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -note "$(BENCH_NOTE)" -merge BENCH_P1.json \
			-desc "root suite: go test -run=NONE -bench=. -benchmem -benchtime=3x ."

# experiments regenerates the tables of EXPERIMENTS.md.
experiments:
	$(GO) run ./cmd/bench -markdown

# chaos runs the fault-injection suite under the race detector: the chaos
# server's determinism, the resilient access path, the site-health guard
# (breakers, bulkheads, hedging, stale serving), and the end-to-end
# degraded/retry acceptance scenarios.
chaos:
	$(GO) test -race ./internal/faults/ ./internal/site/ ./internal/pagecache/ -run 'Chaos|Fault|Retry|Degraded|Stall|Singleflight|Backoff|NotFound|Session|Resilience'
	$(GO) test -race ./internal/guard/
	$(GO) test -race ./internal/engine/ ./internal/pagecache/ ./internal/matview/ ./cmd/ulixesd/ -run 'Chaos|Breaker|Stale|Shed|Drain'
	$(GO) run ./cmd/bench -only P3
	$(GO) run ./cmd/bench -only P5

# overload runs the admission/deadline/memory-governance suite under the
# race detector, then the P8 overload experiment: 10x bursty arrivals on a
# chaotic site, asserting goodput, bounded sojourn, exact access accounting
# and a leak-free drain.
overload:
	$(GO) test -race ./internal/overload/
	$(GO) test -race ./cmd/ulixesd/ -run 'Queue|Deadline|Panic|Watch|Drain|Stats'
	$(GO) run ./cmd/bench -only P8

# serve starts the long-running query server over the shared page store.
serve:
	$(GO) run ./cmd/ulixesd

# smoke runs the query server's concurrent self-test (ephemeral port).
smoke:
	$(GO) run ./cmd/ulixesd -smoke
