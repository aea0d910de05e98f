GO ?= go
GOFMT ?= gofmt

# BENCH_OUT names the JSON file `make bench` writes.
BENCH_OUT ?= bench.json

.PHONY: build test race race-concurrent vet fmt-check lint lint-json lint-schema verify reproduce faults fuzz-smoke bench bench-smoke serve-smoke cluster-smoke chaos chaos-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-concurrent focuses the race detector on the packages that
# legitimately spawn goroutines or share state across them (every
# //lint:allow nondeterminism waiver lives there), so a waivered data
# race cannot ride in under a green lint.
race-concurrent:
	$(GO) test -race ./internal/cluster/... ./internal/memo/... ./internal/runner/... ./internal/service/...

vet:
	$(GO) vet ./...

# fmt-check fails on any .go file gofmt would rewrite or cannot parse.
# The lint corpus's allow/broken.go is deliberately unparseable (the
# loader must skip it), so it is the one source file left out; the
# benchmark's build directory holds no source of this repository.
fmt-check:
	@files=$$(find . -path ./.bench_build -prune -o -name '*.go' \
		! -path ./internal/lint/testdata/src/allow/broken.go -print); \
	out=$$($(GOFMT) -l $$files) || exit 1; \
	if [ -n "$$out" ]; then echo "unformatted (run gofmt -w):"; echo "$$out"; exit 1; fi

lint:
	$(GO) run ./cmd/maxwelint ./...

# lint-json emits one JSON object per finding — the machine-readable
# stream CI annotations and editor integrations consume.
lint-json:
	$(GO) run ./cmd/maxwelint -json ./...

# lint-schema regenerates the jsonschema golden files. The resulting
# diff is the reviewable record of a wire-format (fingerprint-breaking)
# change; commit it only deliberately.
lint-schema:
	$(GO) run ./cmd/maxwelint -write-schema

# reproduce is the reproduction gate: cmd/verify re-derives the paper's
# anchor numbers and orderings and exits non-zero if any check fails.
reproduce:
	$(GO) run ./cmd/verify

# faults smoke-tests the fault-injection layer and the resilient runner
# under the race detector: the fault/runner/cell test surface plus a short
# seeded fault sweep through the real CLI.
faults:
	$(GO) test -race -run 'Fault|Stepper|Interrupt|Checkpoint|Resume|Cancel|Retry|Scrub|Corrupt' \
		./internal/sim/ ./internal/runner/ ./internal/faultinject/ \
		./internal/experiments/ ./internal/mapping/ ./internal/spare/
	$(GO) run -race ./cmd/nvmsim -regions 128 -lines-per-region 8 -endurance 300 \
		-fault-transient 0.01 -fault-stuckat 0.0005 -fault-metadata 0.0005 -fault-seed 7

# fuzz-smoke runs every Fuzz* target of the module for 5 s, one
# `go test -fuzz` per target (the fuzzer takes one target at a time). A
# failing input lands in the package's testdata/fuzz for replay.
fuzz-smoke:
	@set -e; for f in $$(grep -rl --include='*_test.go' '^func Fuzz' . | grep -v '^./_perfbench/' | sort); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "fuzz-smoke: $$t in $$(dirname $$f)"; \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime 5s $$(dirname $$f)/; \
		done; \
	done

# bench regenerates $(BENCH_OUT): every figure/table bench (including
# the cold/warm memo-cache sweep), the sweep supervisor at Parallelism 1
# vs 0, the runner's own per-cell cost on no-op cells, the batched Fig7 cell against its per-write reference, one UAA
# lifetime, the nvmd submit round trip, and the leveled engine's layers
# (one WeightedChooser and Zipf draw, one relocation of each randomized
# swap leveler, one BPA and one UAA epoch), two unleveled cells of the
# batched direct loop, two Max-WE BPA cells of the leveled loop and the
# two fault cells of the per-write route at default scale, one device
# write, one Max-WE access and one hybrid-table translation, parsed to
# JSON (with
# NumCPU/GOMAXPROCS metadata) by cmd/benchjson. A second run repeats the
# runner sweep at GOMAXPROCS 2 and 4 (the -cpu suffixes become
# benchjson's "procs" field) to record multi-core scaling; it appends to
# the same log so one conversion sees both. Separate steps so a bench
# failure stops make instead of vanishing into a pipe.
bench:
	$(GO) test -run '^$$' -bench '^Benchmark(Fig|Table|Runner|UAALifetime|Service|Federated|WeightedChooserDraw|ZipfDraw|SwapWLRelocate|BPANextBatch|UAANextBatch|BatchedDirect|BatchedLeveled|PerWriteRoute|DeviceWrite|SchemeAccess|HybridTranslate)' -benchmem \
		. ./internal/sim/ ./internal/service/ ./internal/runner/ ./internal/xrand/ ./internal/wearlevel/ ./internal/attack/ \
		./internal/device/ ./internal/spare/ ./internal/mapping/ > bench.out
	$(GO) test -run '^$$' -bench '^BenchmarkRunnerScaling$$' -benchmem -cpu 2,4 . >> bench.out
	$(GO) run ./cmd/benchjson -o $(BENCH_OUT) < bench.out
	@rm -f bench.out

# bench-smoke runs every benchmark exactly once and checks the output
# still parses — the CI guard that `make bench` cannot rot.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem \
		. ./internal/sim/ ./internal/service/ ./internal/runner/ ./internal/xrand/ ./internal/wearlevel/ ./internal/attack/ \
		./internal/device/ ./internal/spare/ ./internal/mapping/ > bench-smoke.out
	$(GO) run ./cmd/benchjson -o /dev/null < bench-smoke.out
	@rm -f bench-smoke.out

# chaos drives the full crash-consistency matrix: every diskfault class
# (torn write, failed fsync, pre-rename crash, ENOSPC) injected at every
# durable-write index of a seeded workload, each followed by a restart
# and a byte-identity check — plus the teeth test that a writer renaming
# before fsync fails the same check.
chaos:
	$(GO) test -run 'TestChaos' -count=1 ./internal/service/

# chaos-smoke is the CI subset: first and last crash point per class.
chaos-smoke:
	$(GO) test -short -run 'TestChaos' -count=1 ./internal/service/

# serve-smoke boots a real nvmd daemon on a random port, submits a tiny
# Figure 7 grid through the CLI, polls it to completion, and checks the
# daemon drains cleanly on SIGTERM.
serve-smoke:
	./scripts/serve_smoke.sh

# cluster-smoke boots a coordinator plus two workers on random ports,
# runs a federated sweep with one worker SIGKILLed mid-sweep, and asserts
# the merged result is byte-identical to a single-node run, that the
# coordinator's cache missed once per cell, and that a resubmit is served
# from that cache without dispatching.
cluster-smoke:
	./scripts/cluster_smoke.sh

# verify is the tier-1 gate: everything CI runs, one command.
verify: build vet fmt-check test race race-concurrent lint reproduce faults fuzz-smoke bench-smoke chaos-smoke serve-smoke cluster-smoke
