# Single entry points for the checks CI runs. `make lint` is the gate:
# it must pass before any commit lands, and CI fails on any diagnostic.

GO ?= go

.PHONY: all build test race lint lint-fix lint-analyzers baselines bench scale policy modern

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race: the host-concurrent code under the race detector — the runtime,
# NAS, scheduler, frame pool, page tables (value entries mutated in
# place with no lock, by whichever task holds the scheduler's baton),
# TLB, adapter (an RDMA write copies frame to frame across two adapters'
# memories), the sweep engine's worker pool and the hugepage library
# (real goroutines share one address space through its lock; ten runs,
# since a race between its hugepage and libc paths needs the right
# interleaving to show).
race:
	$(GO) test -race ./internal/mpi/... ./internal/nas/... ./internal/sched/... ./internal/phys/... ./internal/vm/... ./internal/tlb/... ./internal/hca/... ./internal/sweep/...
	$(GO) test -race -count=10 ./internal/alloc/...

# lint: gofmt, go vet, and the repo's own eight-analyzer reprolint v2
# suite (determinism, maporder, nilspec, parkflow, schedonly,
# statspairing, tickunits, timeflow — see DESIGN.md §7), plus the
# analyzers' own fixture tests so the suite can't rot. The SARIF leg
# holds the serializer to the same standard as the BENCH documents:
# the artifact must validate (sarifcheck) and two back-to-back runs
# must render byte-identical bytes. CI uploads /tmp/reprolint.sarif to
# code scanning. reprolint exits 1 on findings, so the SARIF runs only
# assert determinism and validity on a tree the text run already
# proved clean.
lint: lint-analyzers baselines
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/reprolint ./...
	$(GO) run ./cmd/reprolint -format sarif ./... > /tmp/reprolint.sarif
	$(GO) run ./cmd/reprolint -format sarif ./... > /tmp/reprolint.run2.sarif
	cmp /tmp/reprolint.sarif /tmp/reprolint.run2.sarif
	$(GO) run ./internal/tools/sarifcheck /tmp/reprolint.sarif

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
# analysistest mode (every // want expectation must fire, nothing else),
# then over the sweep engine explicitly — the one package whose output
# contract (byte-identical BENCH documents) dies instantly on any
# wall-clock or map-order leak.
lint-analyzers:
	$(GO) test ./internal/analysis/...
	$(GO) run ./cmd/reprolint ./internal/sweep/...

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
