#!/bin/sh
# Full verification: build, vet, the project's own analyzers, the whole
# test suite under the race detector, the schedules gate and the fuzz and
# bench smokes. This is what `make verify` runs; CI runs the same steps.
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...
echo "== go vet ./..."
# vet's lostcancel pass is the gate on context cancel discipline.
go vet ./...
echo "== ulixes-vet ./..."
go run ./cmd/ulixes-vet ./...
# The suite includes the server smokes (cmd/ulixesd TestSmoke), the P3-P8
# experiments' invariant checks (internal/exp) and a vet of the benchmark
# module (root TestBenchmarkModuleVets).
echo "== go test -race ./..."
go test -race ./...
# scripts/schedules.txt lists the packages and why each is there. On 2
# cores the plain leg takes about 2 minutes and the -race leg about 10.
echo "== schedules (scripts/schedules.txt at -count=20 -cpu=1,2,8, plain and -race)"
make schedules
make schedules-race
echo "== fuzz smoke (seed corpora plus a short generated burst)"
make fuzz-smoke FUZZTIME=2s >/dev/null
echo "== bench smoke (every benchmark compiles and runs once)"
go test -run=NONE -bench=. -benchtime=1x ./... >/dev/null
echo "verify: OK"
