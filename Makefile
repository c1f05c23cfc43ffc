GO ?= go

# The perf-gate benchmarks: the end-to-end fault-free pair (allocations and
# events/req are part of the contract), the event-engine microbenches, and
# the real-data store's fault-free/degraded/rebuilding throughput trio.
BENCH_PATTERN ?= FaultFree|Schedule|Store
BENCH_PKGS ?= . ./internal/sim ./internal/store

# Static-analysis tool versions, pinned so lint results are reproducible;
# `go run pkg@version` fetches them on demand — no global install needed.
STATICCHECK_VERSION ?= v0.6.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test race allocs bench-smoke bench bench-save bench-diff store-chaos store-chaos-2f nightly vet fmt-check fault-smoke perfbench-check lint cover verify clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race pass: every test once under the race detector, except the
# chaos and crash tests, which store-chaos and store-chaos-2f run under it
# with their seed handling. -count=1 keeps Go's test-result cache (which
# CI restores) from skipping the run.
RACE_OWNED = TestChaosAcknowledged|TestCrash|TestChaos2F

race:
	$(GO) test -race -count=1 -skip '$(RACE_OWNED)' ./...

# The allocation pin: TestUnitOpAllocs is built only without -race (the
# race detector's sync.Pool drops buffers at random), so the race pass
# never runs it.
allocs:
	$(GO) test -count=1 -run TestUnitOpAllocs ./internal/store/

# One iteration of every benchmark — exercises each paper figure/table
# driver and the instrumentation overhead pair without the full timing run.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# Record the perf-gate benchmarks as the next bench/BENCH_<n>.json baseline.
bench-save:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem $(BENCH_PKGS) | $(GO) run ./cmd/benchdiff -save

# Compare a fresh run against the latest baseline; fails on any metric more
# than 10% worse. Override the gate with BENCHDIFF_THRESHOLD (fraction, e.g.
# 0.5 on noisy shared runners) — benchdiff reads it as its default.
bench-diff:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem $(BENCH_PKGS) | $(GO) run ./cmd/benchdiff -diff

# The chaos invariant under the race detector: 12 workers against
# fault-injecting backends (transients, latent sector errors, torn writes,
# read corruption) with a mid-run disk failure and rebuild; every
# acknowledged write must read back byte-for-byte and parity must end
# clean. The seed is always printed and, when STORE_CHAOS_DIR is set,
# written there so CI can upload it as a failure artifact; rerun a failure
# with CHAOS_SEED=<seed>.
store-chaos:
	$(GO) test -race -run 'TestChaosAcknowledged|TestCrash' -count=1 -v ./internal/store/

# The two-failure chaos invariant: the same 12-worker fault mix against the
# P+Q dual-parity store, losing TWO disks mid-run — a singly-degraded
# window, a doubly-degraded window with the code saturated, then both
# rebuilds under load. Seed handling matches store-chaos (printed, written
# to STORE_CHAOS_DIR, rerun with CHAOS_SEED=<seed>).
store-chaos-2f:
	$(GO) test -race -run 'TestChaos2F' -count=1 -v ./internal/store/

# The nightly long-haul: property suites too slow to run on every push.
# Every two-disk failure pair must recover on the P+Q store, a rebuild
# must succeed from any mid-sweep failure point, the SIGKILL
# crash-recovery test runs twenty kills at fresh timing offsets, and both
# chaos invariants run repeatedly under fresh seeds (each run prints its
# seed; failures replay with CHAOS_SEED=<seed>).
nightly:
	$(GO) test -race -run 'TestPQEveryTwoDisksRecover' -count=5 -v ./internal/store/
	$(GO) test -race -run 'TestRebuildAnyFailurePoint' -count=5 -v ./internal/store/
	$(GO) test -race -run 'TestCrashDuringWriteRecovers' -count=20 -v ./internal/store/
	$(GO) test -race -run 'TestChaosAcknowledged|TestChaos2F' -count=10 -v ./internal/store/

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# A short end-to-end lifecycle run with media faults enabled: random disk
# failures, latent sector errors, transient timeouts, scrubbing, and true
# double failures. (The fault-injection stack's tests run in race.)
fault-smoke:
	$(GO) run ./examples/continuous

# The end-to-end benchmark lives in its own module (perfbench/, outside
# ./...): vet and test it here so a store API change that breaks it fails
# the gate instead of the benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Pinned static analysis: staticcheck (bug-prone constructs, dead code,
# style drift) and govulncheck (known CVEs reachable from this module).
# Needs network access to fetch the pinned tools on first run.
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# Coverage gate: total statement coverage must stay at or above the floor
# checked into .coverage-floor. Raise the floor when coverage improves;
# never lower it to make a failing build pass.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	floor=$$(cat .coverage-floor); \
	echo "coverage: total $$total% (floor $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t + 0 < f + 0) ? 1 : 0 }' || \
		{ echo "coverage $$total% fell below the $$floor% floor"; exit 1; }

# The full pre-merge gate: formatting, static checks, build, one race pass
# over every test (the chaos and crash tests in their own targets), the
# allocation pin, the fault-injection lifecycle smoke, the storage chaos invariants (single-
# and double-failure), the benchmark module's vet and tests, and a
# benchmark smoke pass.
verify: fmt-check vet build race allocs fault-smoke store-chaos store-chaos-2f perfbench-check bench-smoke
	@echo "verify: OK"

clean:
	$(GO) clean ./...
