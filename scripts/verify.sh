#!/bin/sh
# Full verification: build, vet, the project's own analyzers, and the whole
# test suite under the race detector. This is what CI and `make verify` run.
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...
echo "== go vet ./..."
# vet's lostcancel pass is the gate on context cancel discipline.
go vet ./...
# benchmark/ is its own module importing a dozen internal packages; nothing
# else compiles it, so an internal API change would break it unnoticed.
echo "== (cd benchmark && go vet ./...)"
(cd benchmark && go vet ./...)
echo "== ulixes-vet ./..."
go run ./cmd/ulixes-vet ./...
echo "== go test -race ./..."
go test -race ./...
# The access-path packages only show their accounting bugs on schedules
# where flights coalesce, and the pipelined evaluator (internal/nalg) runs
# up to Workers follow tasks of Workers accesses each over them, so they are
# run many times at several GOMAXPROCS, plain (fast goroutine turnover) and
# under the race detector. The plan cache (internal/plancache) runs with
# them: it coalesces concurrent misses of one (statistics, scope, shape)
# key through planning flights, whose waiters and counters only interleave
# on such schedules; its tests take milliseconds. The other packages
# outside internal/exp that start goroutines run here too: internal/guard
# races hedged requests and cancels the losers, and cmd/ulixesd serves
# concurrent clients, drains and streams to SSE watchers. internal/stats
# runs here because its statistics crawl fetches each breadth-first level
# through FetchAllCtx, whose worker goroutines fill one instance that must
# come out the same on every schedule. Standing queries, the change feed
# and view answering re-answer through the pipelined evaluator over the
# shared store, whose follow producers resolve store hits on their own
# goroutines while invalidations run; their suites take under 0.2 s each.
# On 2 cores the plain leg takes about
# three minutes and the -race leg about eleven; the timeouts leave a few
# times that.
echo "== access path under many schedules (-count=20 -cpu=1,2,8, plain and -race)"
go test -count=20 -cpu=1,2,8 -timeout 10m ./internal/pagecache/ ./internal/site/ ./internal/engine/ ./internal/matview/ ./internal/nalg/ ./internal/plancache/ ./internal/guard/ ./internal/stats/ ./internal/standing/ ./internal/changefeed/ ./internal/vanswer/ ./cmd/ulixesd/
go test -race -count=20 -cpu=1,2,8 -timeout 25m ./internal/pagecache/ ./internal/site/ ./internal/engine/ ./internal/matview/ ./internal/nalg/ ./internal/plancache/ ./internal/guard/ ./internal/stats/ ./internal/standing/ ./internal/changefeed/ ./internal/vanswer/ ./cmd/ulixesd/
echo "== fuzz smoke (seed corpora plus a short generated burst)"
make fuzz-smoke FUZZTIME=2s >/dev/null
echo "== bench smoke (every benchmark compiles and runs once)"
go test -run=NONE -bench=. -benchtime=1x ./... >/dev/null
echo "== guard (race-enabled breaker/bulkhead/hedge suite)"
go test -race ./internal/guard/
echo "== chaos (fault-injection determinism check)"
go run ./cmd/bench -only P3 >/dev/null
echo "== shared store (multi-query determinism check)"
go run ./cmd/bench -only P4 >/dev/null
echo "== site-health guard (partial-outage determinism check)"
go run ./cmd/bench -only P5 >/dev/null
echo "== view answering (byte-identity and GET-cut check)"
go run ./cmd/bench -only P6 >/dev/null
echo "== push consistency (staleness-vs-traffic under a mutating site)"
go run ./cmd/bench -only P7 >/dev/null
echo "== overload (race-enabled admission/deadline/ledger suite)"
go test -race ./internal/overload/
echo "== overload survival (goodput, bounded sojourn, leak-free drain)"
go run ./cmd/bench -only P8 >/dev/null
echo "== ulixesd smoke (concurrent query server self-test)"
go run ./cmd/ulixesd -smoke
echo "== ulixesd push smoke (standing-query SSE self-test, hook and poll feeds)"
go run ./cmd/ulixesd -smoke -feed hook
go run ./cmd/ulixesd -smoke -feed poll -feed-interval 50ms
echo "verify: OK"
