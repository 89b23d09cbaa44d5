# Single entry points for the checks CI runs. `make lint` is the gate:
# it must pass before any commit lands, and CI fails on any diagnostic.

GO ?= go

.PHONY: all build test race fuzz lint lint-fix lint-analyzers baselines bench scale policy modern census

all: build test

build:
	$(GO) build ./...

# test: the repo's tests, plus vet and tests of benchmark/, which is its
# own Go module (so ./... skips it) and calls the simulator's API.
test:
	$(GO) test ./...
	cd benchmark && $(GO) vet . && $(GO) test .

# race: the host-concurrent code under the race detector — the runtime,
# NAS, the modern workloads (per-rank host buffers reused across a rank
# body's iterations), scheduler, frame pool and the shared read-only
# ramp frames every sweep worker reads, page tables (value entries
# mutated in place with no lock, by whichever task holds the scheduler's
# baton), TLB, adapter (an RDMA write copies frame to frame across two
# adapters' memories), the sweep engine's worker pool and the hugepage
# library (real goroutines share one address space through its lock; ten
# runs, since a race between its hugepage and libc paths needs the right
# interleaving to show).
race:
	$(GO) test -race ./internal/mpi/... ./internal/nas/... ./internal/workload/... ./internal/sched/... ./internal/phys/... ./internal/vm/... ./internal/tlb/... ./internal/hca/... ./internal/sweep/...
	$(GO) test -race -count=10 ./internal/alloc/...

# fuzz: a minute of new exploration for each fuzz target: the frame
# store (ramp writes, copies and frame reuse against flat oracles) and
# the TLB entry file (accesses, shootdowns and flushes against the
# age-stamp LRU oracle). Every `go test` already replays the committed
# corpora under internal/phys/testdata/fuzz and
# internal/tlb/testdata/fuzz.
fuzz:
	$(GO) test ./internal/phys -run '^$$' -fuzz '^FuzzFrameOps$$' -fuzztime 60s -parallel 2
	$(GO) test ./internal/tlb -run '^$$' -fuzz '^FuzzFileMatchesLRU$$' -fuzztime 60s -parallel 2

# lint: gofmt, go vet, and the repo's own eight-analyzer reprolint v2
# suite (determinism, maporder, nilspec, parkflow, schedonly,
# statspairing, tickunits, timeflow — see DESIGN.md §7), plus the
# analyzers' own fixture tests so the suite can't rot. reprolint runs
# once, over the whole tree, and exits 1 on any finding.
lint: lint-analyzers baselines
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/reprolint ./...

# lint-fix: apply every machine-applicable suggested fix (maporder's
# missing sort, nilspec's missing nil guard, determinism's clock/rng
# rewrites) to the tree in place, then re-run gofmt. Findings without
# a fix still print and fail the target — they need a human.
lint-fix:
	$(GO) run ./cmd/reprolint -fix ./...
	gofmt -w .

# baselines: every committed BENCH_*.json must pass benchcheck — a
# hand-edited or schema-stale baseline fails the lint gate, not a
# downstream bench job hours later.
baselines:
	@for f in BENCH_*.json; do \
		echo "benchcheck $$f"; \
		$(GO) run ./internal/tools/benchcheck < $$f || exit 1; \
	done

# lint-analyzers: run reprolint's analyzers over their own testdata in
# analysistest mode (every // want expectation must fire, nothing else).
lint-analyzers:
	$(GO) test ./internal/analysis/...

# bench: the sweep engine's end-to-end gate. The smoke grid must render
# byte-identical BENCH documents at pool widths 1 and 4, both documents
# must pass benchcheck, and a fresh seed-grid run must hold the
# committed BENCH_seed.json baseline within the default tolerance and
# reproduce it byte for byte.
bench:
	$(GO) build -o /tmp/reprosweep ./cmd/sweeprun
	GOMAXPROCS=1 /tmp/reprosweep -grid smoke -workers 1 -o /tmp/BENCH_smoke.w1.json
	GOMAXPROCS=4 /tmp/reprosweep -grid smoke -workers 4 -o /tmp/BENCH_smoke.w4.json
	cmp /tmp/BENCH_smoke.w1.json /tmp/BENCH_smoke.w4.json
	$(GO) run ./internal/tools/benchcheck < /tmp/BENCH_smoke.w1.json
	/tmp/reprosweep -grid seed -o /tmp/BENCH_seed.json -baseline BENCH_seed.json -gate
	$(GO) run ./internal/tools/benchcheck < /tmp/BENCH_seed.json
	cmp /tmp/BENCH_seed.json BENCH_seed.json

# policy: the placement-policy gate. One policy-grid run (all four
# fixed strategies plus the threshold and adaptive engines over the
# seed workloads) must validate, hold the committed BENCH_policy.json
# baseline, keep the adaptive policy best-or-tied on the primary metric
# in every cell group, and — since policy decisions are pure functions
# of virtual-time telemetry — render byte-identical documents under
# different GOMAXPROCS and worker counts.
policy:
	$(GO) build -o /tmp/reprosweep ./cmd/sweeprun
	GOMAXPROCS=2 /tmp/reprosweep -grid policy -workers 2 -o /tmp/BENCH_policy.w2.json \
		-baseline BENCH_policy.json -gate -require-best adaptive
	GOMAXPROCS=8 /tmp/reprosweep -grid policy -workers 4 -o /tmp/BENCH_policy.w4.json
	cmp /tmp/BENCH_policy.w2.json /tmp/BENCH_policy.w4.json
	cmp /tmp/BENCH_policy.w2.json BENCH_policy.json
	$(GO) run ./internal/tools/benchcheck < /tmp/BENCH_policy.w2.json

# scale: the 1024-rank scheduler gate. One scale-grid run must finish
# fast (the acceptance bound is 30 s of wall time), hold the committed
# BENCH_scale.json throughput baseline within a generous tolerance
# (wall clocks vary across hosts; only order-of-magnitude scheduler
# regressions should trip it), and — after stripping the host-dependent
# ticks_per_wallsec metrics — render byte-identical documents under
# GOMAXPROCS 1 and 8 and different worker counts.
scale:
	$(GO) build -o /tmp/reprosweep ./cmd/sweeprun
	GOMAXPROCS=1 /tmp/reprosweep -grid scale -workers 1 \
		-o /tmp/BENCH_scale.json -stripped /tmp/BENCH_scale.det1.json \
		-baseline BENCH_scale.json -gate -tol 75
	GOMAXPROCS=8 /tmp/reprosweep -grid scale -workers 2 \
		-o /dev/null -stripped /tmp/BENCH_scale.det8.json
	cmp /tmp/BENCH_scale.det1.json /tmp/BENCH_scale.det8.json
	$(GO) run ./internal/tools/benchcheck < /tmp/BENCH_scale.json

# modern: the modern-workload gate. One modern-grid run (MoE dispatch/
# combine, tiered KV-cache decode, 2-D halo exchange under the four
# fixed strategies plus adaptive) must validate, hold the committed
# BENCH_modern.json byte for byte, and render byte-identical stripped
# views under GOMAXPROCS 1 vs 8 and different worker counts.
modern:
	$(GO) build -o /tmp/reprosweep ./cmd/sweeprun
	GOMAXPROCS=1 /tmp/reprosweep -grid modern -workers 1 \
		-o /tmp/BENCH_modern.w1.json -stripped /tmp/BENCH_modern.det1.json \
		-baseline BENCH_modern.json -gate
	GOMAXPROCS=8 /tmp/reprosweep -grid modern -workers 4 \
		-o /dev/null -stripped /tmp/BENCH_modern.det8.json
	cmp /tmp/BENCH_modern.det1.json /tmp/BENCH_modern.det8.json
	cmp /tmp/BENCH_modern.w1.json BENCH_modern.json
	$(GO) run ./internal/tools/benchcheck < /tmp/BENCH_modern.w1.json

# census: the experiment coverage census (DESIGN.md, "Coverage census").
# Builds every experiment entry point with coverage of the whole module:
# repro, sweeprun, tracetool, the five examples, the root Benchmark*
# functions and the benchmark/ module. Runs each once from a temporary
# directory: full repro; repro -stats clean, under -policy adaptive and
# under CI's fault spec with a trace; tracetool -check on that trace; the
# smoke, seed, policy, modern and scale grids with the flags CI passes
# (-table, and -baseline against the committed document with -gate,
# -require-best adaptive on policy, -stripped on modern and scale); the
# root benchmarks at one iteration; the benchmark binary on its four
# workloads with -trace 1. A grid whose gate fails (a coverage build
# runs slower than the scale gate's wall-clock baseline allows) is
# reported and does not stop the census. Prints the simulation
# functions no run executed: the 0.0% rows of go tool covdata func,
# outside internal/analysis and internal/tools. About 60 s on a 2-vCPU
# host; not a CI gate.
census:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	cov="-cover -coverpkg=repro/..."; mkdir -p "$$d/cov" "$$d/bin"; \
	for c in repro sweeprun tracetool; do $(GO) build $$cov -o "$$d/bin/$$c" ./cmd/$$c; done; \
	for e in aggregation allocator latency quickstart stencil; do $(GO) build $$cov -o "$$d/bin/ex_$$e" ./examples/$$e; done; \
	$(GO) test -c $$cov -o "$$d/bin/root.test" .; \
	(cd benchmark && $(GO) build $$cov -o "$$d/bin/benchmark" .); \
	spec='seed=7,hugecap=8,hugefail=40,shrink=100:2,memlock=16m,wr=50,attevict=400'; \
	repo="$(CURDIR)"; \
	cd "$$d"; export GOCOVERDIR="$$d/cov"; \
	bin/repro > /dev/null; \
	bin/repro -stats > /dev/null; \
	bin/repro -stats -policy adaptive > /dev/null; \
	bin/repro -stats -faults "$$spec" -trace trace.json > /dev/null; \
	bin/tracetool -check trace.json > /dev/null; \
	for e in aggregation allocator latency quickstart stencil; do bin/ex_$$e > /dev/null; done; \
	bin/sweeprun -grid smoke -o /dev/null; \
	gated() { g=$$1; shift; bin/sweeprun -grid $$g -o /dev/null -table -baseline "$$repo/BENCH_$$g.json" -gate "$$@" 2> /dev/null || \
		echo "census: sweeprun -grid $$g failed its gate" >&2; }; \
	gated seed; gated policy -require-best adaptive; \
	gated modern -stripped stripped.json; gated scale -stripped stripped.json -tol 75; \
	bin/root.test -test.run '^$$' -test.bench . -test.benchtime 1x -test.gocoverdir="$$d/cov" > /dev/null; \
	for w in paper-nas paper-micro modern-pack scale-1024; do bin/benchmark -workload $$w -seconds 0 -trace 1 > /dev/null; done; \
	$(GO) tool covdata func -i "$$d/cov" | \
		grep -E '^repro/(internal/|repro\.go)' | grep -Ev '^repro/internal/(analysis|tools)/' | \
		awk '$$NF == "0.0%"'
