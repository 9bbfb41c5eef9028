# Convenience entry points; CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test lint fuzz results cover

all: build lint test

build:
	$(GO) build ./...

# Tier-1 test suite (use GOFLAGS=-short for the quick variant).
test:
	$(GO) test ./...

# The blocks of the protocol packages, and of the lock predictor, the
# crash journal, the grant disciplines, the engine, the fault injector,
# the interconnect, the memory-system models, the diff kernels and page
# space, the bitsets, the slice pools, the combining tree, the trace
# layer, the statistics, the differential checker, the experiment drivers,
# the applications, the lock lab's queueing model, the commands'
# observability flags and the invariant rules with their loader, that no
# test executes, one file:start,end line each:
# the first check for a change of representation (docs/TESTING.md). The
# profile repeats a block once per test binary, so a block counts as
# executed if any binary ran it. The count is a ratchet: it fails above
# COVER_MAX, the committed count, whose blocks docs/TESTING.md argues one
# by one. A new block no test runs gets a test, goes, or is argued there
# with COVER_MAX raised in the same change.
COVERPKG = ./internal/aec,./internal/munin,./internal/tm,./internal/proto,./internal/lap,./internal/recover,./internal/lockpolicy,./internal/sim,./internal/fault,./internal/network,./internal/memsys,./internal/mem,./internal/bitset,./internal/pool,./internal/topo,./internal/trace,./internal/stats,./internal/check,./internal/harness,./internal/apps,./internal/predict,./internal/profutil,./internal/lint,./internal/lint/loader
COVER_MAX = 9
cover:
	@set -e; tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) test -coverpkg=$(COVERPKG) -coverprofile="$$tmp/cover.out" ./... > "$$tmp/test.log" \
		|| { cat "$$tmp/test.log"; exit 1; }; \
	awk 'NR > 1 { sub(/^aecdsm\//, "", $$1); if (!($$1 in ran)) order[++n] = $$1; ran[$$1] += $$3 } \
		END { for (i = 1; i <= n; i++) if (!ran[order[i]]) { print order[i]; left++ } \
		printf "%d blocks of %s never executed (at most %d allowed)\n", left, "$(COVERPKG)", $(COVER_MAX) > "/dev/stderr"; \
		exit left > $(COVER_MAX) }' "$$tmp/cover.out"

# Static gates: vet, formatting, the two invariant rules (a test over the
# whole module; see docs/LINTING.md) and the tracing guards' inline
# budget: "one branch per site when tracing is off" is a property of
# trace.Emitter's five emitting methods, so the gate fails when the
# compiler reports that one of them no longer inlines. staticcheck/govulncheck run in CI where the
# tools are installed.
lint:
	$(GO) vet ./...
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:" >&2; echo "$$fmt" >&2; exit 1; fi
	$(GO) test -count=1 ./internal/lint/
	! $(GO) build -gcflags=-m=2 ./internal/trace 2>&1 | grep -E 'cannot inline Emitter\.(Event|Lock|LockNote|Page|Diff):'

# Quick differential-checker pass (see docs/TESTING.md for deeper runs),
# then the four native fuzz targets on a short budget: the diff kernel,
# the fault-spec parser, the JSONL trace sink and the lap-predict note.
fuzz:
	$(GO) run ./cmd/fuzzdsm -iters 50
	$(GO) test -run '^$$' -fuzz FuzzMakeDiff -fuzztime 20s ./internal/mem/
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime 20s ./internal/fault/
	$(GO) test -run '^$$' -fuzz FuzzJSONL -fuzztime 20s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzIntSetNote -fuzztime 20s ./internal/trace/

# The committed sweeps reproduce byte for byte (CI's "Results" step).
# Two sub-second sweeps that drive manager failover in all three protocols
# and every grant policy through the shared lock-manager service
# (internal/proto/lockmgr.go), then a 16- and 64-processor scaling sweep
# rendered sequentially and on the worker pool: the radix-16 path of the
# shared barrier relay (internal/proto/relay.go) must produce the same
# bytes at every job count. The recovery sweep runs a second time traced:
# sweeps go through the same scheduler as the paper's tables, so the trace
# must be non-empty and the render unperturbed. The timeline (about two
# seconds at its committed full scale) pins the observer-sampled run
# (sim.Engine.Observe).
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
