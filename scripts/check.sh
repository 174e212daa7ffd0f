#!/bin/sh
# CI gate, and the one list of its steps; `make check` runs this script.
set -eux

go build ./...
go vet ./...
# Every Go file is gofmt-clean, benchmark/ included.
test -z "$(gofmt -l .)"
# The contract benchmark is a nested module built against this one.
(cd benchmark && go vet ./... && go test ./...)
# Every example runs to completion: they are the public surface's callers.
for ex in examples/*/; do
	go run "./$ex" >/dev/null
done
# The experiments suite needs well over 30m under -race on slow runners.
go test -race -timeout 60m ./...

# The 0-allocs/op pins skip themselves under -race, so they run here with the
# differential suites of their packages: decision-stream identity across
# engines, plane vs locked path, the exec tiers on the concurrent checker
# (interp = compiled in Decision and Stats, bitmap = interp in action),
# bitmap soundness, and fold-vs-hook (Stats against a Counters observer,
# which /metrics rests on).
go test -count=1 -run 'ZeroAllocs|Differential' . ./internal/engine/ ./internal/concurrent/ ./internal/seccomp/ ./internal/bpf/ ./internal/ebpf/
go test -race -count=1 -run 'TestFoldMatchesHookRace' ./internal/engine/
# Full depth here; under -race it runs a tenth of the swaps.
go test -count=1 -run 'TestSwapsReleaseRetiredGenerations' ./internal/concurrent/

# Fuzz targets run their seed corpora as unit tests; `go test -fuzz <name>`
# explores beyond them.
go test -count=1 -run 'Fuzz' ./internal/wire/
go test -count=1 -run 'ZeroAllocs|TestCheck|TestBatch' ./internal/wire/
go test -count=1 -run 'TestWireDifferentialAllWorkloads' ./internal/server/

# Shared-memory transport: each test skips where mmap or the futex is missing.
# The -cpu 1,2 race lines run both consumer poll ladders: yield-only with
# one P, tight-spin-then-yield with two.
go test -count=1 -run 'Fuzz' ./internal/shm/
go test -count=1 -run 'ZeroAllocs' ./internal/shm/ ./internal/server/client/
go test -count=1 -run 'TestBatcher' ./internal/server/client/
go test -count=1 -run 'TestShmDifferentialAllWorkloads' ./internal/server/
go test -race -count=1 -cpu 1,2 -run 'TestRingSPSCConcurrent|TestRingMPSCConcurrent' ./internal/shm/
go test -race -count=1 -cpu 1,2 -run 'DoorbellStress|TestFutexParkWake|TestParkProtocol' ./internal/shm/
go test -race -count=1 -run 'TestShmHotSwapHammer|TestShmDoorbellNegotiation|TestShmCloseRacesHandshake|TestStalledPeerDoesNotDelayOthers' ./internal/server/
go test -race -count=1 -cpu 1,2 -run 'TestShm' ./internal/server/client/

go test -count=1 -run 'Fuzz' ./internal/bpf/
go test -count=1 -run 'Fuzz' ./internal/ebpf/

go test -race -count=1 -run 'TestFastPathHotSwapHammer' ./internal/concurrent/
# Lock-free VAT probes: the table's seqlock against a writer on a 4-slot
# table, and argument-checked profiles swapped under lock-free readers.
go test -race -count=1 -cpu 1,2 -run 'TestSharedProbeSeqlockHammer' ./internal/cuckoo/
go test -race -count=1 -cpu 1,2 -run 'TestVATProbeHotSwapHammer' ./internal/concurrent/
go test -race -count=1 -run 'TestSPTAccessedConcurrentMark' ./internal/core/
go test -race -count=1 -run 'TestProgrammable' ./internal/engine/ ./internal/server/
