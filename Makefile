# Convenience entry points; CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test lint fuzz bench

all: build lint test

build:
	$(GO) build ./...

# Tier-1 test suite (use GOFLAGS=-short for the quick variant).
test:
	$(GO) test ./...

# Static gates: vet, formatting, and the repo's invariant lint suite
# (dsmvet; see docs/LINTING.md). staticcheck/govulncheck run in CI where
# the tools are installed.
lint:
	$(GO) vet ./...
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:" >&2; echo "$$fmt" >&2; exit 1; fi
	$(GO) run ./cmd/dsmvet ./...

# Quick differential-checker pass (see docs/TESTING.md for deeper runs).
fuzz:
	$(GO) run ./cmd/fuzzdsm -iters 50

# Kernel and engine microbenchmarks plus the scaling-sweep timing,
# condensed by cmd/benchsum into one sorted {benchmark, ns/op, B/op,
# allocs/op} record per line so the perf trajectory is diffable across
# PRs (docs/PERFORMANCE.md, docs/SCALING.md).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMakeDiff|BenchmarkMergeDiffs' -benchmem -json . \
		| $(GO) run ./cmd/benchsum | tee BENCH_kernels.json
	$(GO) test -run '^$$' -bench 'BenchmarkSchedule|BenchmarkSendDeliver|BenchmarkSendDeliverReliable|BenchmarkHandoff' -benchmem -json ./internal/sim/ \
		| $(GO) run ./cmd/benchsum -assert-zero-allocs 'BenchmarkSchedule$$|BenchmarkScheduleDeep$$|BenchmarkSendDeliver$$|BenchmarkSendDeliverReliable$$|BenchmarkHandoff$$' | tee BENCH_engine.json
	$(GO) test -run '^$$' -bench 'BenchmarkScaling' -timeout 30m -json . \
		| $(GO) run ./cmd/benchsum | tee BENCH_scaling.json
