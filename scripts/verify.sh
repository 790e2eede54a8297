#!/bin/sh
# Full verification: build, vet, the project's own analyzers, and the whole
# test suite under the race detector. This is what CI and `make verify` run.
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...
echo "== go vet ./..."
go vet ./...
echo "== ulixes-vet ./..."
go run ./cmd/ulixes-vet ./...
echo "== go test -race ./..."
go test -race ./...
# The access-path packages only show their accounting bugs on schedules
# where flights coalesce, and the pipelined evaluator (internal/nalg) runs
# up to Workers follow tasks of Workers accesses each over them, so they are
# run many times at several GOMAXPROCS, plain (fast goroutine turnover) and
# under the race detector. On 2 cores the plain leg takes about two minutes
# and the -race leg about six and a half; the timeouts leave a few times that.
echo "== access path under many schedules (-count=20 -cpu=1,2,8, plain and -race)"
go test -count=20 -cpu=1,2,8 -timeout 10m ./internal/pagecache/ ./internal/site/ ./internal/engine/ ./internal/matview/ ./internal/nalg/
go test -race -count=20 -cpu=1,2,8 -timeout 25m ./internal/pagecache/ ./internal/site/ ./internal/engine/ ./internal/matview/ ./internal/nalg/
echo "== fuzz smoke (seed corpora plus a short generated burst)"
go test ./internal/hypertext/ -run=NONE -fuzz='FuzzTokenize$' -fuzztime=2s >/dev/null
go test ./internal/hypertext/ -run=NONE -fuzz='FuzzLexer$' -fuzztime=2s >/dev/null
go test ./internal/hypertext/ -run=NONE -fuzz='FuzzUnescapeHTML$' -fuzztime=2s >/dev/null
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
