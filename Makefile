GO ?= go

.PHONY: check build vet test test-race bench bench-server bench-engine bench-batch bench-filter bench-prog

# check is the CI gate: build, vet, the full test suite under the race
# detector, then the guards that skip themselves under -race (the
# 0-allocs/op pins) or want full depth (the differential suites, the fuzz
# seed corpora, the race hammers). scripts/check.sh is the one list of
# them; make check runs it.
check:
	./scripts/check.sh

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

# bench runs the concurrent checker's parallel throughput benchmarks on the
# serving tier, single checks and 64-call batches, per traffic shape: warm
# hits (lock-free) and a 10% deny mix (the denials take the lock). Add
# -cpu 1,2 through GOFLAGS to see what a second caller adds.
bench:
	$(GO) test -run='^$$' -bench 'BenchmarkConcurrentChecker' -benchmem ./internal/concurrent

# bench-server runs only the shm edge's BenchmarkShmCheck* round trips: a
# single check from one caller (always holds the reap role), a 64-call
# batch from one caller (BenchmarkShmCheckBatch64: codec + CheckBatch, the
# crossing amortised) and single checks from eight callers on one
# connection (mostly followers, promoted as leaders leave).
bench-server:
	$(GO) test -run='^$$' -bench 'BenchmarkShmCheck' -benchmem ./internal/server

# bench-engine runs the registry-level sweep: both engines (filter-only,
# draco-concurrent) serially, plus parallel callers through draco-concurrent.
bench-engine:
	$(GO) test -run='^$$' -bench 'BenchmarkEngine' -benchmem ./internal/engine

# bench-batch compares CheckBatchDecisions (lock-free pass, then one lock
# for the residue) against the same calls through CheckDecision one by one
# at batch sizes 8/64/512.
bench-batch:
	$(GO) test -run='^$$' -bench 'BenchmarkCheckBatch' -benchmem ./internal/concurrent

# bench-filter compares the filter execution tiers on the docker-default
# miss path: interp (the test oracle), compiled (the simulator's filter) and
# bitmap (what the concurrent checker always runs).
bench-filter:
	$(GO) test -run='^$$' -bench 'BenchmarkFilterExec' -benchmem ./internal/seccomp

# bench-prog times the programmable-policy paths: a bare interpreter run,
# a constant-extracted check, and the full stateful Check path.
bench-prog:
	$(GO) test -run='^$$' -bench 'BenchmarkProgExec' -benchmem ./internal/ebpf

