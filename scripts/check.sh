#!/bin/sh
# CI gate: build everything, vet, then run the full test suite under the
# race detector (includes the 32-goroutine hot-swap hammer test in
# internal/concurrent, the 16-goroutine decision-plane hammer hot-swapping
# the lock-free fast path's compiled records, and TestWireHotSwapHammer in
# internal/server: 32 goroutines on one wire connection pool while
# profiles hot-swap across engine rebuilds).
# Mirrors `make check`.
set -eux

go build ./...
go vet ./...
# The contract benchmark is a nested module built against this one: vet and
# test it here so a root API change that breaks it fails the gate, not the
# benchmark pipeline.
(cd benchmark && go vet ./... && go test ./...)
# -timeout raised over the 10m default: the experiments suite replays full
# simulations and needs well over 30m under the race detector on slow
# single-core runners (Fig16 alone replays the Fig2 matrix twice).
go test -race -timeout 60m ./...

# The zero-allocation guards skip themselves under -race (the detector
# perturbs alloc accounting), so run them - plus the differential suites
# they share packages with - without it. These pin the Engine contract
# (0 allocs/op on the draco-sw and draco-concurrent hot paths, including
# the grouped CheckBatch and the decision plane's constant-allow/
# constant-deny fast hits; decision-stream identity across filter-only,
# draco-sw and draco-concurrent, plus plane-vs-locked outcome and stats
# identity over 100k events x 15 workloads x 3 profiles) and the
# filter-tier contract (0 allocs/op on the compiled-exec and bitmap fast
# paths; interp-vs-compiled Decision+Stats identity and
# bitmap action identity across every registered engine and workload;
# bitmap soundness against the interpreter on all 512 syscall numbers),
# and the fold-vs-hook differential: every registry engine's Stats() -
# classes, cache hits, denials, cycles - against a Counters observer over
# 100k events with a mid-trace swap, which is what lets dracod render
# /metrics from Stats alone.
go test -count=1 -run 'ZeroAllocs|Differential' ./internal/engine/ ./internal/concurrent/ ./internal/seccomp/ ./internal/bpf/ ./internal/ebpf/
# Its concurrent half, explicitly under -race: two checkers against a
# Stats()/SetProfile loop on every engine; seal, fold and redo must neither
# lose nor double a class count.
go test -race -count=1 -run 'TestFoldMatchesHookRace' ./internal/engine/
# The retired-generation guard at full depth (under -race it runs a tenth
# of the swaps): 2000 profile swaps with checks in between must neither
# grow the live heap nor lose a check from Stats.
go test -count=1 -run 'TestSwapsReleaseRetiredGenerations' ./internal/concurrent/

# Wire-protocol guards, run explicitly: the frame-decoder fuzz seed corpus
# (each seed as a unit test; use `go test -fuzz FuzzFrameDecode
# ./internal/wire` to explore beyond it; FuzzBatchCodecInPlace holds the
# in-place batch codec to the per-element reference), the codec
# 0-allocs/op pins and in-place-vs-reference tests, and
# the wire-vs-in-process differential suite (decisions over the wire are
# identical to calling the engine directly on 100k-event traces of all 15
# workloads, through batch frames and through single-check frames
# pipelined on one connection).
go test -count=1 -run 'Fuzz' ./internal/wire/
go test -count=1 -run 'ZeroAllocs|TestCheck|TestBatch' ./internal/wire/
go test -count=1 -run 'TestWireDifferentialAllWorkloads' ./internal/server/

# Shared-memory transport guards. Each skips where mmap or the futex is
# missing. The fuzz seeds include the retired header encodings, which
# must fail closed (`go test -fuzz FuzzParseSlot ./internal/shm` explores
# further). The stall test's shm legs cover a peer that stops reaping and
# one that leaves a claimed slot unpublished.
go test -count=1 -run 'Fuzz' ./internal/shm/
go test -count=1 -run 'ZeroAllocs' ./internal/shm/ ./internal/server/client/
go test -count=1 -run 'TestBatcher' ./internal/server/client/
go test -count=1 -run 'TestShmDifferentialAllWorkloads' ./internal/server/
go test -race -count=1 -run 'TestRingSPSCConcurrent|TestRingMPSCConcurrent' ./internal/shm/
go test -race -count=1 -run 'DoorbellStress|TestFutexParkWake|TestParkProtocol' ./internal/shm/
go test -race -count=1 -run 'TestShmHotSwapHammer|TestShmDoorbellNegotiation|TestShmCloseRacesHandshake|TestStalledPeerDoesNotDelayOthers' ./internal/server/
go test -race -count=1 -run 'TestShm' ./internal/server/client/

# BPF differential fuzz seed corpus, run explicitly (each seed as a unit
# test; use `go test -fuzz FuzzValidateAndRun ./internal/bpf` to explore
# beyond it): every accepted program runs through both the interpreter and
# the compiled direct-threaded executor and must agree on value, error,
# and executed-instruction count.
go test -count=1 -run 'Fuzz' ./internal/bpf/

# Programmable-policy (eBPF tier) guards, run explicitly. The verifier
# fuzz seed corpus (use `go test -fuzz FuzzVerifyAndRun ./internal/ebpf`
# to explore beyond it): verifier-accepted programs must run to completion
# on adversarial inputs through both the interpreter and the compiled tier
# with matching action, instruction count, and map state; rejected
# programs must refuse to instantiate a VM.
go test -count=1 -run 'Fuzz' ./internal/ebpf/

# Decision-plane guards, run explicitly under -race: the hot-swap hammer
# (16 goroutines checking through the lock-free fast path while the
# profile — and with it the compiled plane — swaps mid-stream; every hit
# must be folded exactly once as generations are sealed) and the SPT Accessed-bit
# atomicity regression test (markers racing the periodic clear sweep).
go test -race -count=1 -run 'TestFastPathHotSwapHammer' ./internal/concurrent/
go test -race -count=1 -run 'TestSPTAccessedConcurrentMark' ./internal/core/

# The programmable race hammer, run explicitly under -race: 16 goroutines
# hammer per-tenant map state (mixed single checks and batches) through the
# sharded engine while profiles hot-swap mid-stream, then a
# final swap asserts the fresh-epoch contract; plus the cross-engine
# stateful decision differential and the end-to-end dracod policy tests.
go test -race -count=1 -run 'TestProgrammable' ./internal/engine/ ./internal/server/

# Benchmark-harness round trip: every mode at smoke depth onto one common-
# schema run file, then the comparator over the run against itself — this
# exercises the full measure/serialize/decode/diff path and must find
# nothing (a self-compare has zero regressions by construction). Regression
# gating against a real baseline happens in CI (soft) and by hand via
# `make bench-compare`; timings here are single-run smoke numbers, not
# trajectory points.
go run ./cmd/dracobench -bench-all -smoke -json /tmp/bench_smoke.$$.json
go run ./cmd/dracobench -compare /tmp/bench_smoke.$$.json /tmp/bench_smoke.$$.json
rm -f /tmp/bench_smoke.$$.json
