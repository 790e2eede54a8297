GO ?= go

.PHONY: build test race vet lint verify schedules schedules-race fuzz-smoke bench bench-json experiments chaos overload serve

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

# schedules runs the packages of scripts/schedules.txt (the list, and why
# each package is on it, is there) many times at several GOMAXPROCS:
# schedules plain, for fast goroutine turnover, and schedules-race under the
# race detector. On 2 cores they take about 2 and 10 minutes; the timeouts
# leave a few times that.
SCHEDULES := $(shell awk '!/^(\#|$$)/' scripts/schedules.txt)
schedules:
	$(GO) test -count=20 -cpu=1,2,8 -timeout 10m $(SCHEDULES)

schedules-race:
	$(GO) test -race -count=20 -cpu=1,2,8 -timeout 25m $(SCHEDULES)

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
# (breakers, bulkheads, hedging, stale serving), the end-to-end
# degraded/retry acceptance scenarios, and the P3 and P5 experiments.
chaos:
	$(GO) test -race ./internal/faults/ ./internal/site/ ./internal/pagecache/ -run 'Chaos|Fault|Retry|Degraded|Stall|Singleflight|Backoff|NotFound|Session|Resilience'
	$(GO) test -race ./internal/guard/
	$(GO) test -race ./internal/engine/ ./internal/pagecache/ ./internal/matview/ ./cmd/ulixesd/ -run 'Chaos|Breaker|Stale|Shed|Drain'
	$(GO) test ./internal/exp/ -run 'TestP3toP6/^P[35]$$'

# overload runs the admission/deadline/memory-governance suite under the
# race detector, then the P8 overload experiment: 10x bursty arrivals on a
# chaotic site, asserting goodput, bounded sojourn, exact access accounting
# and a leak-free drain.
overload:
	$(GO) test -race ./internal/overload/
	$(GO) test -race ./cmd/ulixesd/ -run 'Queue|Deadline|Panic|Watch|Drain|Stats'
	$(GO) test ./internal/exp/ -run '^TestP8OverloadBoundedAndExact$$'

# serve starts the long-running query server over the shared page store.
serve:
	$(GO) run ./cmd/ulixesd
