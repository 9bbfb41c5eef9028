# Convenience entry points; CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test lint fuzz results bench cover

all: build lint test

build:
	$(GO) build ./...

# Tier-1 test suite (use GOFLAGS=-short for the quick variant).
test:
	$(GO) test ./...

# The blocks of the protocol packages that no test executes, one
# file:start,end line each: the first check for a change of representation
# (docs/TESTING.md). The profile repeats a block once per test binary, so a
# block counts as executed if any binary ran it. The count is a ratchet: it
# fails above COVER_MAX, the committed count, whose blocks docs/TESTING.md
# argues one by one. A new block no test runs gets a test, goes, or is
# argued there with COVER_MAX raised in the same change.
COVERPKG = ./internal/aec,./internal/munin,./internal/tm,./internal/proto
COVER_MAX = 14
cover:
	@set -e; tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) test -coverpkg=$(COVERPKG) -coverprofile="$$tmp/cover.out" ./... > "$$tmp/test.log" \
		|| { cat "$$tmp/test.log"; exit 1; }; \
	awk 'NR > 1 { sub(/^aecdsm\//, "", $$1); if (!($$1 in ran)) order[++n] = $$1; ran[$$1] += $$3 } \
		END { for (i = 1; i <= n; i++) if (!ran[order[i]]) { print order[i]; left++ } \
		printf "%d blocks of %s never executed (at most %d allowed)\n", left, "$(COVERPKG)", $(COVER_MAX) > "/dev/stderr"; \
		exit left > $(COVER_MAX) }' "$$tmp/cover.out"

# Static gates: vet, formatting, the repo's invariant lint suite (dsmvet;
# see docs/LINTING.md) and the tracing guards' inline budget: "one branch
# per site when tracing is off" is a property of trace.Emitter's five
# emitting methods, so the gate fails when the compiler reports that one
# of them no longer inlines. staticcheck/govulncheck run in CI where the
# tools are installed.
lint:
	$(GO) vet ./...
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:" >&2; echo "$$fmt" >&2; exit 1; fi
	$(GO) run ./cmd/dsmvet ./...
	! $(GO) build -gcflags=-m=2 ./internal/trace 2>&1 | grep -E 'cannot inline Emitter\.(Event|Lock|LockNote|Page|Diff):'

# Quick differential-checker pass (see docs/TESTING.md for deeper runs),
# then the four native fuzz targets on a short budget: the diff kernel,
# the fault-spec parser, benchsum's reader of `go test -json` streams and
# the JSONL trace sink.
fuzz:
	$(GO) run ./cmd/fuzzdsm -iters 50
	$(GO) test -run '^$$' -fuzz FuzzMakeDiff -fuzztime 20s ./internal/mem/
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime 20s ./internal/fault/
	$(GO) test -run '^$$' -fuzz FuzzRun -fuzztime 20s ./cmd/benchsum/
	$(GO) test -run '^$$' -fuzz FuzzJSONL -fuzztime 20s ./internal/trace/

# The committed sweeps reproduce byte for byte (CI's "Results" step).
# Two sub-second sweeps that drive manager failover in all three protocols
# and every grant policy through the shared lock-manager service
# (internal/proto/lockmgr.go), then a 16- and 64-processor scaling sweep
# rendered sequentially and on the worker pool: the radix-16 path of the
# shared barrier relay (internal/proto/relay.go) must produce the same
# bytes at every job count. The recovery sweep runs a second time traced:
# sweeps go through the same scheduler as the paper's tables, so the trace
# must be non-empty and the render unperturbed. The timeline (about two
# seconds at its committed full scale) pins the warm-start sampling session.
results:
	@set -e; tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; set -x; \
	$(GO) build -o "$$tmp/tables" ./cmd/tables; \
	"$$tmp/tables" -recovery -scale 0.25 | cmp - results/recovery_sweep.txt; \
	"$$tmp/tables" -recovery -scale 0.25 -trace "$$tmp/rec.jsonl" | cmp - results/recovery_sweep.txt; \
	test -s "$$tmp/rec.jsonl"; \
	"$$tmp/tables" -locklab | cmp - results/locklab.txt; \
	"$$tmp/tables" -timeline | cmp - results/timeline.txt; \
	"$$tmp/tables" -scaling -scaling-procs 16,64 -scale 0.05 -jobs 1 > "$$tmp/scaling-jobs1.txt"; \
	"$$tmp/tables" -scaling -scaling-procs 16,64 -scale 0.05 > "$$tmp/scaling-jobsN.txt"; \
	cmp "$$tmp/scaling-jobs1.txt" "$$tmp/scaling-jobsN.txt"

# Kernel and engine microbenchmarks plus the scaling-sweep timing,
# condensed by cmd/benchsum into one sorted {benchmark, ns/op, B/op,
# allocs/op} record per line so the perf trajectory is diffable across
# PRs (docs/PERFORMANCE.md, docs/SCALING.md). BenchmarkRunRecycled is one
# whole run per iteration on the region the one before gave back: its B/op
# is what a run allocates besides its page memory. BenchmarkMakeTransientDiff
# makes and recycles a diff on the encoding the iteration before handed back.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMakeDiff|BenchmarkMakeTransientDiff|BenchmarkMergeDiffs' -benchmem -json . \
		| $(GO) run ./cmd/benchsum -assert-zero-allocs 'BenchmarkMakeDiff/clean$$|BenchmarkMakeTransientDiff/|BenchmarkMergeDiffs/.*/steady$$' | tee BENCH_kernels.json
	$(GO) test -run '^$$' -bench 'BenchmarkSchedule|BenchmarkSendDeliver|BenchmarkSendDeliverReliable|BenchmarkHandoff|BenchmarkTMFault|BenchmarkTopoOrder|BenchmarkRunRecycled' -benchmem -json ./internal/sim/ ./internal/tm/ ./internal/harness/ \
		| $(GO) run ./cmd/benchsum -assert-zero-allocs 'BenchmarkSchedule$$|BenchmarkScheduleDeep$$|BenchmarkSendDeliver$$|BenchmarkSendDeliverReliable$$|BenchmarkHandoff$$|BenchmarkTMFault/|BenchmarkTopoOrder/' | tee BENCH_engine.json
	$(GO) test -run '^$$' -bench 'BenchmarkScaling' -timeout 30m -json . \
		| $(GO) run ./cmd/benchsum | tee BENCH_scaling.json
