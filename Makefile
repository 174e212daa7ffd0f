GO ?= go

.PHONY: check build vet test test-race test-engine test-wire test-shm test-bpf test-ebpf bench bench-server bench-engine bench-batch bench-filter bench-prog bench-fastpath bench-all bench-all-smoke bench-compare loadgen loadgen-shm misssweep progsweep

# check is the CI gate: build, vet, the full test suite under the race
# detector (which includes the 32-goroutine wire hot-swap hammer), the
# engine alloc-guard/differential tests (which skip themselves under
# -race), the wire fuzz-seed + differential suite, the BPF
# interp-vs-compiled fuzz seed corpus, and the programmable-policy guards.
# scripts/check.sh is the same sequence for environments without make.
check: build vet test-race test-engine test-wire test-shm test-bpf test-ebpf

build:
	$(GO) build ./...

# vet also vets and tests the nested contract-benchmark module, which
# builds against this one: a root API change that breaks it fails here.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race -timeout 60m ./...

# test-engine runs the Engine- and filter-tier-contract guards without the
# race detector: the 0-allocs/op assertions (perturbed by -race; engine hot
# paths plus the compiled-exec and bitmap filter fast paths), the
# registry-level decision-stream differential tests, the exec-tier
# differential on the concurrent checker (interp, compiled and bitmap
# Config.Mode), the fold-vs-hook differential (every registry engine's
# Stats() against a Counters observer over 100k events — what dracod's
# /metrics rests on) and the bitmap soundness suite; plus the
# retired-generation guard at full depth (2000 profile swaps must neither
# grow the live heap nor lose a check from Stats; under -race it runs a
# tenth of them) and the fold-vs-hook hammer under -race (two checkers
# against a Stats()/SetProfile loop, per concurrency-safe engine).
test-engine:
	$(GO) test -count=1 -run 'ZeroAllocs|Differential' ./internal/engine/ ./internal/concurrent/ ./internal/seccomp/ ./internal/bpf/ ./internal/ebpf/
	$(GO) test -count=1 -run 'TestSwapsReleaseRetiredGenerations' ./internal/concurrent/
	$(GO) test -race -count=1 -run 'TestFoldMatchesHookRace' ./internal/engine/

# test-wire runs the wire protocol's guards explicitly: the frame-decoder
# fuzz seed corpus (every seed as a unit test; `go test -fuzz
# FuzzFrameDecode ./internal/wire` explores further; FuzzBatchCodecInPlace
# holds the in-place batch codec to the per-element reference), the codec
# zero-allocation pins (CallSeq.AppendTo included), the in-place-vs-
# reference batch codec tests, and the wire-vs-in-process differential
# suite (100k-event traces, all 15 workloads, batch frames + pipelined
# singles).
test-wire:
	$(GO) test -count=1 -run 'Fuzz' ./internal/wire/
	$(GO) test -count=1 -run 'ZeroAllocs|TestCheck|TestBatch' ./internal/wire/
	$(GO) test -count=1 -run 'TestWireDifferentialAllWorkloads' ./internal/server/

# test-shm runs the shared-memory transport's guards explicitly: the slot
# parser fuzz seed corpus (adversarial seq/len/lap encodings, region
# headers including the retired encodings, and MPSC claimed-unpublished
# states; `go test -fuzz FuzzParseSlot ./internal/shm` explores
# further), the ring,
# Batcher-fold and full Shm.Check and 64-call Shm.CheckBatch round-trip
# 0-allocs/op pins (in-process server included), the
# Batcher fold tests, the shm-vs-in-process
# differential suite (100k-event traces, all 15 workloads, batch frames +
# single checks + the client-side Batcher fold), and the race hammers:
# the SPSC producer/consumer pair, the 16-producer MPSC claim hammer, the
# futex/socket doorbell park-wake stress (spurious wakes included), the
# 16-goroutine check storm over one ring pair with mid-stream profile
# hot-swaps, doorbell negotiation, Close racing a handshake, and the client's
# caller-side reaping tests (context, Close and cancel-then-Close under a
# parked leader, follower promotion, the cancelled-call storm, the
# 16-goroutine reap-role hammer), all under -race.
# Every piece skips (not fails) on platforms without mmap or the
# negotiated doorbell primitive.
test-shm:
	$(GO) test -count=1 -run 'Fuzz' ./internal/shm/
	$(GO) test -count=1 -run 'ZeroAllocs' ./internal/shm/ ./internal/server/client/
	$(GO) test -count=1 -run 'TestBatcher' ./internal/server/client/
	$(GO) test -count=1 -run 'TestShmDifferentialAllWorkloads' ./internal/server/
	$(GO) test -race -count=1 -run 'TestRingSPSCConcurrent|TestRingMPSCConcurrent' ./internal/shm/
	$(GO) test -race -count=1 -run 'DoorbellStress|TestFutexParkWake|TestParkProtocol' ./internal/shm/
	$(GO) test -race -count=1 -run 'TestShmHotSwapHammer|TestShmDoorbellNegotiation|TestShmCloseRacesHandshake|TestStalledPeerDoesNotDelayOthers' ./internal/server/
	$(GO) test -race -count=1 -run 'TestShm' ./internal/server/client/

# test-bpf runs the BPF differential fuzz seed corpus as unit tests:
# every accepted program through both the interpreter and the compiled
# executor, requiring matching value, error, and instruction count
# (`go test -fuzz FuzzValidateAndRun ./internal/bpf` explores further).
test-bpf:
	$(GO) test -count=1 -run 'Fuzz' ./internal/bpf/

# test-ebpf runs the programmable-policy guards explicitly: the verifier
# differential fuzz seed corpus (verifier-accepted programs run through the
# interpreter and the compiled tier with matching action, instruction
# count, and map state on adversarial inputs; rejected programs must refuse
# to instantiate — `go test -fuzz FuzzVerifyAndRun ./internal/ebpf`
# explores further), the 0-allocs/op pins on the programmable hot paths,
# the interp-vs-compiled differential, and the 16-goroutine map-state race
# hammer with a mid-stream profile hot-swap (engine layer, under -race).
test-ebpf:
	$(GO) test -count=1 -run 'Fuzz' ./internal/ebpf/
	$(GO) test -count=1 -run 'ZeroAllocs|Differential' ./internal/ebpf/
	$(GO) test -race -count=1 -run 'TestProgrammable' ./internal/engine/ ./internal/server/

# bench runs the concurrent checker's parallel throughput benchmarks across
# 1/4/16-shard configurations (see results/concurrent_baseline.json for a
# recorded reference run).
bench:
	$(GO) test -run='^$$' -bench 'BenchmarkConcurrentChecker' -benchmem ./internal/concurrent

# bench-server: the HTTP edge, plus a single shm check from one caller
# (always holds the reap role), a 64-call shm batch from one caller
# (BenchmarkShmCheckBatch64: codec + CheckBatch, the crossing amortised)
# and single checks from eight callers on one connection (mostly
# followers, promoted as leaders leave).
bench-server:
	$(GO) test -run='^$$' -bench 'BenchmarkServerCheck|BenchmarkShmCheck' -benchmem ./internal/server

# bench-engine runs the registry-level sweep: every engine serially plus the
# PR-1 shard grid through draco-concurrent (results/engine_baseline.json
# records a `dracobench -engine all` run of the same workload).
bench-engine:
	$(GO) test -run='^$$' -bench 'BenchmarkEngine' -benchmem ./internal/engine

# bench-batch compares the shard-grouped CheckBatch path against the
# one-lock-per-call baseline at batch sizes 8/64/512.
bench-batch:
	$(GO) test -run='^$$' -bench 'BenchmarkCheckBatch' -benchmem ./internal/concurrent

# bench-filter compares the filter execution tiers (interp vs compiled vs
# bitmap) on the docker-default miss path.
bench-filter:
	$(GO) test -run='^$$' -bench 'BenchmarkFilterExec' -benchmem ./internal/seccomp

# bench-prog compares the programmable-policy execution tiers (interp vs
# compiled vs constant-extracted vs the full stateful Check path).
bench-prog:
	$(GO) test -run='^$$' -bench 'BenchmarkProgExec' -benchmem ./internal/ebpf

# bench-fastpath measures the lock-free decision plane: draco-concurrent
# with the fast path on vs off on ID-only (constant-dominated) and
# complete-profile traffic, per workload plus the speedup geomean.
bench-fastpath:
	$(GO) run ./cmd/dracobench -fastpath

# bench-all runs every dracobench mode back to back at full depth and
# writes one trajectory file (BENCH_<date>.json at the repo root) on the
# common result schema — the file worth committing as a trajectory point.
bench-all:
	$(GO) run ./cmd/dracobench -bench-all

# bench-all-smoke is the CI depth: small traces, fewer reps, reduced
# grids. A few minutes on one core; catches step-function regressions.
bench-all-smoke:
	$(GO) run ./cmd/dracobench -bench-all -smoke -json BENCH_smoke.json

# bench-compare diffs two run files metric-by-metric inside the noise
# band (see internal/bench/README.md) and exits nonzero on hard
# regressions:  make bench-compare OLD=BENCH_baseline.json NEW=BENCH_smoke.json
OLD ?= BENCH_baseline.json
NEW ?= BENCH_smoke.json
bench-compare:
	$(GO) run ./cmd/dracobench -compare $(OLD) $(NEW)

# The single-mode sweeps below now emit the common result schema; the
# results/*.json files they used to regenerate are frozen legacy-schema
# records (and the converter's test fixtures) — lift one onto the common
# schema with `dracobench -convert results/<file>.json`, and record new
# trajectory points with `make bench-all` instead.

# loadgen: service-edge comparison — single-check traffic from every
# workload over the HTTP JSON API vs the binary wire protocol at equal
# client concurrency; legacy record in results/wire_loadgen.json.
loadgen:
	$(GO) run ./cmd/dracobench -loadgen

# loadgen-shm: the shm-focused quick loop — two workloads at reduced
# depth, for iterating on the ring/doorbell/Batcher hot path without the
# full sweep. loadgen itself already includes the shm edges at full depth
# whenever the platform supports mmap.
loadgen-shm:
	$(GO) run ./cmd/dracobench -loadgen -workloads httpd,redis -events 20000

# misssweep: filter-execution (miss-path) sweep — every workload's
# cold-start trace through a bare filter under the interp, compiled, and
# bitmap tiers; legacy record in results/filterexec.json.
misssweep:
	$(GO) run ./cmd/dracobench -misssweep -reps 3

# progsweep: programmable-policy sweep — every workload trace through a
# bare bitmap-tier filter plain vs with constant-extracted and stateful
# policies attached; legacy record in results/progexec.json.
progsweep:
	$(GO) run ./cmd/dracobench -progsweep -reps 3
