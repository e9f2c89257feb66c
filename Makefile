# Developer entry points. The Go toolchain is the only requirement.

.PHONY: build test race vet fmt-check api-check api-update loc conformance chaos-smoke crash-smoke watch-smoke fuzz-smoke examples-smoke perfbench-check bench bench-smoke bench-prsq bench-prsq-check bench-explain bench-explain-check experiments

build:
	go build ./...

test: build
	go test ./...

# CI gate: go vet across the whole tree.
vet:
	go vet ./...

# CI gate: the tree must be gofmt-clean.
fmt-check:
	@files="$$(gofmt -l .)"; if [ -n "$$files" ]; then echo "gofmt needed on:" $$files; exit 1; fi

# CI gate: the root package's public API must match the committed api.txt.
api-check:
	go run ./cmd/apicheck

# Regenerate api.txt after an intentional API change.
api-update:
	go run ./cmd/apicheck -update

# The two size numbers the ROADMAP north star tracks: non-test Go lines
# outside the benchmark module (perfbench/) and its build tree
# (.bench_build/), and the public API surface (api.txt lines). A report,
# not a gate.
loc:
	@echo "non-test Go lines: $$(find . -name '*.go' ! -name '*_test.go' -not -path './perfbench/*' -not -path './.bench_build/*' | xargs cat | wc -l)"
	@echo "api.txt lines: $$(wc -l < api.txt)"

race:
	go test -race ./...

# The cross-engine conformance harness alone (also part of `test`); replay a
# failing case with CRSKY_CONFORMANCE_SEED=<seed> make conformance.
conformance:
	go test -race -count=1 ./internal/conformance/

# The fault-injection chaos harness under the race detector: concurrent
# mixed traffic against a server with injected slot delays, engine errors,
# and panics must yield only contract-conforming responses, leak no pool
# slots, and answer exactly afterwards; a one-worker server saturated by
# "approx": "auto" queries must shed or degrade, never fail or panic.
chaos-smoke:
	go test -race -count=1 -run 'TestChaos|TestApproxConformance' ./internal/conformance/

# The durability chaos harness under the race detector: the kill-the-process
# crash matrix across every snapshot+WAL mutation (clean-cut and torn-write),
# torn/bit-flip recovery, degraded boot with quarantine, fsck verify/repair,
# and the serving-level recovery conformance oracle (recovered engines must
# answer byte-identically and still match the naive oracle).
crash-smoke:
	go test -race -count=1 -run 'TestCrashRecovery|TestTorn|TestCorrupt|TestWALRegister|TestFsck|TestQuarantine|TestHostile|TestPutGetDeleteReopen|TestCompact' ./internal/store/
	go test -race -count=1 -run 'TestStoreDurability|TestStartupQuarantine|TestServerCrashRecovery|TestRegisterFailsClosed|TestUploadRejected' ./internal/server/
	go test -race -count=1 -run 'TestRecoveredServerConformance' ./internal/conformance/

# The dynamic-plane hammer under the race detector: concurrent readers,
# watchers (some disconnecting mid-stream), and an HTTP writer on one
# dataset. Readers must see answers bit-identical to the client-side oracle
# at the committed generation stamped on each response (never a blend of
# two generations), the live-flip path must match the naive causality
# oracle, and the watch hub must end with zero subscriptions and zero
# in-flight pool slots. One re-evaluation round takes one pool slot for
# all its subscriptions (TestWatchReevalOneSlot), a round that reads a
# tombstone before the delete's notice emits nothing
# (TestWatchTombstonedInRound), and the ProbCtx membership probe the
# rounds run agrees with the naive oracles on all three models.
watch-smoke:
	go test -race -count=1 -run 'TestWatchSmokeConcurrent|TestWatch|TestObjectMutation|TestMutateThenQuery|TestMutationDurability|TestCrashBetweenCommitAndApply' ./internal/server/
	go test -race -count=1 -run 'TestCausalityLiveFlipThroughWatch|TestConformanceProbCtx' ./internal/conformance/

# A short coverage-guided run of every fuzz target (go test -fuzz accepts a
# single target per package invocation, hence one line each).
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzJoinSelfStream$$' -fuzztime 15s ./internal/rtree/
	go test -run '^$$' -fuzz '^FuzzInsertSearch$$' -fuzztime 15s ./internal/rtree/
	go test -run '^$$' -fuzz '^FuzzQuadratureMemo$$' -fuzztime 15s ./internal/uncertain/
	go test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime 15s ./internal/store/
	go test -run '^$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime 15s ./internal/store/
	go test -run '^$$' -fuzz '^FuzzDomRect$$' -fuzztime 15s ./internal/geom/
	go test -run '^$$' -fuzz '^FuzzSplitByQuadrants$$' -fuzztime 15s ./internal/geom/
	go test -run '^$$' -fuzz '^FuzzLoadUncertainCSV$$' -fuzztime 15s ./internal/dataset/
	go test -run '^$$' -fuzz '^FuzzLoadCertainCSV$$' -fuzztime 15s ./internal/dataset/
	go test -run '^$$' -fuzz '^FuzzMBRCore$$' -fuzztime 15s ./internal/prsq/

# Run every example program once; a non-zero exit fails the target. The
# build compiles them, but only running them shows they still work.
examples-smoke:
	@set -e; for d in examples/*/; do echo "go run ./$$d"; go run ./$$d > /dev/null; done

# The benchmark harness (perfbench/) is a Go module of its own, so the root
# `go build ./...` and `go vet ./...` never compile it: vet and test it here
# so a removed name it uses fails CI instead of only the benchmark run.
perfbench-check:
	cd perfbench && go vet ./... && go test ./...

bench:
	go test -bench=. -benchmem

# One iteration of every benchmark, unit tests skipped — the CI smoke run
# that keeps the benchmark suite compiling and executable.
bench-smoke:
	go test -run '^$$' -bench=. -benchtime=1x ./...

# Refresh the PRSQ performance trajectory (BENCH_prsq.json) at paper scale.
bench-prsq:
	go run ./cmd/experiments -exp prsq -scale 1

# Re-measure into a scratch file and fail against the committed
# BENCH_prsq.json on a >20% drop in speedup-vs-naive (hardware-neutral:
# naive and indexed share the machine within a run) or any growth in
# simulated I/O (deterministic).
bench-prsq-check:
	go run ./cmd/experiments -exp prsq -scale 1 -benchfile /tmp/BENCH_prsq.head.json -against BENCH_prsq.json

# Assert the v2 batch query contract at the committed PRSQ scale: 64 query
# points through one shared join must charge strictly fewer node accesses
# than 64 independent indexed queries, with element-wise identical answers.
# Covers the certain model too: the shared-frontier BBRS batch is held to
# the same strictly-fewer-accesses gate against 64 per-query traversals.
bench-batch:
	go run ./cmd/experiments -exp prsqbatch -scale 1

# Refresh the explanation hot-path trajectory (BENCH_explain.json): naive
# oracle vs old refiner vs branch-and-bound FMCS, sample and pdf models.
bench-explain:
	go run ./cmd/experiments -exp explain -scale 1

# Re-measure into a scratch file and fail against the committed
# BENCH_explain.json on a >20% drop in speedup-vs-naive (hardware-neutral),
# any growth in SubsetsExamined on any cell (deterministic), or a bb
# cell that stops examining strictly fewer subsets than old-refiner,
# bb-norepairseed or bb-noadmissible in its config.
bench-explain-check:
	go run ./cmd/experiments -exp explain -scale 1 -benchfile /tmp/BENCH_explain.head.json -against BENCH_explain.json

experiments:
	go run ./cmd/experiments
