# Local targets mirror the CI steps (.github/workflows/ci.yml) so the
# two never drift.

GO ?= go

.PHONY: all build test vet fmt fmt-check lint bench bench-diff bench-golden sweep-check backend-check examples-check replay-check dist-check ci

all: build

build:
	$(GO) build ./...

# The benchmark in perfbench/ is its own module, which ./... leaves out;
# vetting and testing it catches a change that breaks what it imports.
test:
	$(GO) test -race ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Mirrors the CI lint job; the version pin here and in ci.yml must move
# together. Fetches the tool on first use (network required).
STATICCHECK_VERSION ?= 2025.1.1
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Interleaved old-vs-new benchmark comparison per the EXPERIMENTS.md
# methodology (min-of-N per binary). BASE picks the git ref to compare
# the working tree against; BENCH narrows the benchmark regex and PKG
# names the package that holds it (e.g. PKG=./internal/ossim). BENCHTIME
# is each run's -test.benchtime: a benchmark of a few microseconds an op
# needs thousands of iterations a run (e.g. BENCHTIME=2000x) to measure
# more than the timer.
BASE ?= HEAD
BENCH ?= ^BenchmarkFullGrid20Reps$$
PKG ?= .
BENCHTIME ?= 3x
bench-diff:
	scripts/benchdiff.sh -b '$(BENCH)' -p '$(PKG)' -t '$(BENCHTIME)' $(BASE)

# Regenerate BENCH_sweep.json and fail if figure or grid metrics
# drifted from goldens/bench_metrics.json (run with UPDATE=1 to rewrite
# the goldens). BenchmarkSweepCollapse's allocs/cell and the advisor
# serving-path benchmarks' decisions/s are reported but not gated:
# allocator behavior and wall-clock throughput may move with the
# toolchain and hardware.
bench-golden:
	$(GO) test -run '^$$' -bench 'BenchmarkFigure|BenchmarkFullGrid20Reps|BenchmarkLargeTraceReplay|BenchmarkSweepCollapse|BenchmarkCellCache|BenchmarkAdvisorDecide' \
			-benchtime 3x -count 3 . \
		| $(GO) run ./internal/tools/benchjson \
			-golden goldens/bench_metrics.json -volatile 'BenchmarkSweepCollapse|BenchmarkCellCache|BenchmarkAdvisorDecide' \
			$(if $(UPDATE),-update) \
			> BENCH_sweep.json

# Sweep determinism (mirrors the CI sweep-determinism job): -parallel
# 1 and 8 and a merge of 3 shard files agree byte for byte, so do the
# cluster-scale grid and the figures at -parallel 1 and 8, a shard file
# is the same bytes at -parallel 1 and 8, the shard-file decoder, the
# config parser, the trace parser, the cell-cache entry decoder and
# checkpoint restore each survive 10 s of fuzzing, and so do the
# kernel's stretches of memory-only ops, compared with running them one
# op at a time; minimization of new inputs is capped at 1 s so that the
# 10 s go to fuzzing.
sweep-check:
	$(GO) build -o /tmp/hadoopsim-ci ./cmd/hadoopsim
	/tmp/hadoopsim-ci -sweep twojob -parallel 1 -format csv -seed 1 > /tmp/sweep-p1.csv
	/tmp/hadoopsim-ci -sweep twojob -parallel 8 -format csv -seed 1 > /tmp/sweep-p8.csv
	cmp /tmp/sweep-p1.csv /tmp/sweep-p8.csv
	/tmp/hadoopsim-ci -sweep cluster -reps 2 -seed 1 -parallel 1 -format csv > /tmp/sweep-cluster-p1.csv
	/tmp/hadoopsim-ci -sweep cluster -reps 2 -seed 1 -parallel 8 -format csv > /tmp/sweep-cluster-p8.csv
	cmp /tmp/sweep-cluster-p1.csv /tmp/sweep-cluster-p8.csv
	for i in 0 1 2; do \
		/tmp/hadoopsim-ci -sweep twojob -parallel 4 -seed 1 -shard $$i/3 > /tmp/sweep-shard-$$i.json; done
	/tmp/hadoopsim-ci -merge -format csv \
		/tmp/sweep-shard-2.json /tmp/sweep-shard-0.json /tmp/sweep-shard-1.json > /tmp/sweep-merged.csv
	cmp /tmp/sweep-p1.csv /tmp/sweep-merged.csv
	/tmp/hadoopsim-ci -figures all -reps 2 -seed 1 -parallel 1 -format json > /tmp/figures-p1.json
	/tmp/hadoopsim-ci -figures all -reps 2 -seed 1 -parallel 8 -format json > /tmp/figures-p8.json
	cmp /tmp/figures-p1.json /tmp/figures-p8.json
	/tmp/hadoopsim-ci -sweep twojob -seed 1 -shard 0/2 -parallel 1 > /tmp/sweep-shard-p1.json
	/tmp/hadoopsim-ci -sweep twojob -seed 1 -shard 0/2 -parallel 8 > /tmp/sweep-shard-p8.json
	cmp /tmp/sweep-shard-p1.json /tmp/sweep-shard-p8.json
	$(GO) test ./internal/sweep -run '^$$' -fuzz '^FuzzReadShard$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/config -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/workload -run '^$$' -fuzz '^FuzzParseTrace$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/sweep -run '^$$' -fuzz '^FuzzCacheEntry$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/coord -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/ossim -run '^$$' -fuzz '^FuzzBatchedOps$$' -fuzztime 10s -fuzzminimizetime 1s

# Backend parity (mirrors the CI backend-parity job): sim backend,
# every figure and the pressure and cluster grids byte-identical to the
# committed 20-rep goldens, the evict, primitive and scenario grids and
# the fifo/fair/hfsp replay hashing to goldens/cluster_cells.sha256, replay
# backend deterministic across -parallel and -shard/-merge, real
# backend smoke run.
backend-check:
	$(GO) build -o /tmp/hadoopsim-ci ./cmd/hadoopsim
	/tmp/hadoopsim-ci -backend sim -sweep twojob -reps 20 -seed 1 -format csv \
		| cmp goldens/grid_twojob_reps20.csv -
	/tmp/hadoopsim-ci -figures all -reps 20 -seed 1 -format json \
		| cmp goldens/figures_reps20.json -
	for s in pressure cluster; do \
		/tmp/hadoopsim-ci -sweep $$s -reps 20 -seed 1 -format csv \
			| cmp goldens/grid_$${s}_reps20.csv - || exit 1; done
	for s in evict primitive scenarios; do \
		/tmp/hadoopsim-ci -sweep $$s -reps 20 -seed 1 -format csv > /tmp/cells-$$s.csv || exit 1; done
	for s in fifo fair hfsp; do \
		/tmp/hadoopsim-ci -backend replay -trace-gen 250 -trace-shards 1 -replay-timescale 10 \
			-replay-window 64 -reps 2 -seed 1 -replay-sched $$s -format csv > /tmp/cells-replay-$$s.csv || exit 1; done
	cd /tmp && sha256sum -c $(CURDIR)/goldens/cluster_cells.sha256
	/tmp/hadoopsim-ci -backend replay -trace goldens/swim_sample.tsv \
		-reps 3 -seed 1 -parallel 1 -format csv > /tmp/replay-p1.csv
	/tmp/hadoopsim-ci -backend replay -trace goldens/swim_sample.tsv \
		-reps 3 -seed 1 -parallel 8 -format csv > /tmp/replay-p8.csv
	cmp /tmp/replay-p1.csv /tmp/replay-p8.csv
	for i in 0 1 2; do \
		/tmp/hadoopsim-ci -backend replay -trace goldens/swim_sample.tsv \
			-reps 3 -seed 1 -shard $$i/3 > /tmp/replay-shard-$$i.json || exit 1; done
	/tmp/hadoopsim-ci -merge -format csv \
		/tmp/replay-shard-2.json /tmp/replay-shard-0.json /tmp/replay-shard-1.json > /tmp/replay-merged.csv
	cmp /tmp/replay-p1.csv /tmp/replay-merged.csv
	/tmp/hadoopsim-ci -backend real -reps 1 -real-steps 10 -real-units 5000000 \
		-format table | grep -q susp

# Examples (mirrors the examples step of the CI backend-parity job):
# the four deterministic facade examples must print exactly what
# goldens/examples.sha256 pins, and the real-process example, whose
# timings vary from run to run, must run to completion (unix only).
# Run with UPDATE=1 to rewrite the hash golden.
examples-check:
	for e in quickstart priority memorypressure sizebased; do \
		$(GO) run ./examples/$$e > /tmp/example-$$e.txt || exit 1; done
	$(if $(UPDATE),cd /tmp && sha256sum example-*.txt > $(CURDIR)/goldens/examples.sha256,)
	cd /tmp && sha256sum -c $(CURDIR)/goldens/examples.sha256
	$(GO) run ./examples/realexec | grep -q 'tl done'

# Large-trace streaming-replay smoke (mirrors the CI replay-smoke
# job): a synthesized 1200-job SWIM trace runs through the full cluster
# engine behind a 64-job streaming input window, split over 3 cells,
# and the output must hash to the committed golden — and be
# byte-identical to the same run with the window disabled, so the
# streaming replayer can't silently diverge from the materialize-
# everything path. The same trace, as one cell under fair and hfsp,
# must pass the same window check and hash to
# goldens/replay_sched1200.sha256. Run with UPDATE=1 to rewrite the
# hash goldens.
replay-check:
	$(GO) build -o /tmp/hadoopsim-ci ./cmd/hadoopsim
	/tmp/hadoopsim-ci -backend replay -trace-gen 1200 -trace-shards 3 \
		-replay-timescale 10 -replay-window 64 -reps 1 -seed 1 -format csv \
		> /tmp/replay-trace-gen.csv
	/tmp/hadoopsim-ci -backend replay -trace-gen 1200 -trace-shards 3 \
		-replay-timescale 10 -reps 1 -seed 1 -format csv \
		| cmp /tmp/replay-trace-gen.csv -
	$(if $(UPDATE),sha256sum /tmp/replay-trace-gen.csv | cut -d' ' -f1 > goldens/replay_trace1200.sha256,)
	@obs=$$(sha256sum /tmp/replay-trace-gen.csv | cut -d' ' -f1); \
	want=$$(cat goldens/replay_trace1200.sha256); \
	if [ "$$obs" != "$$want" ]; then \
		echo "large-trace replay hash $$obs != golden $$want"; exit 1; fi; \
	echo "large-trace replay output matches golden hash ($$obs)"
	for s in fair hfsp; do \
		/tmp/hadoopsim-ci -backend replay -trace-gen 1200 -trace-shards 1 -replay-timescale 10 \
			-replay-window 64 -reps 1 -seed 1 -replay-sched $$s -format csv > /tmp/replay-sched-$$s.csv || exit 1; \
		/tmp/hadoopsim-ci -backend replay -trace-gen 1200 -trace-shards 1 -replay-timescale 10 \
			-reps 1 -seed 1 -replay-sched $$s -format csv | cmp /tmp/replay-sched-$$s.csv - || exit 1; done
	$(if $(UPDATE),cd /tmp && sha256sum replay-sched-fair.csv replay-sched-hfsp.csv > $(CURDIR)/goldens/replay_sched1200.sha256,)
	cd /tmp && sha256sum -c $(CURDIR)/goldens/replay_sched1200.sha256

# Distributed parity (mirrors the CI distributed-parity job): a
# coordinator plus two localhost workers — with artificially uneven
# cell costs, a worker-kill/lease-reissue case, a coordinator
# SIGKILL + checkpoint-resume case, a seeded -chaos fault-injection
# case, and a -cache cold-fill/warm-replay case — must reproduce the
# single-process sweep byte for byte. `make dist-check CASES=cache`
# (or chaos, coordkill, basic) runs one case.
CASES ?= all
dist-check:
	$(GO) build -o /tmp/hadoopsim-ci ./cmd/hadoopsim
	bash scripts/dist_parity.sh /tmp/hadoopsim-ci $(CASES)

# Nightly full-grid gate: regenerate every sweep at the paper's 20
# repetitions via 3 shards, merge, and diff against the committed
# aggregate goldens; figures likewise at -reps 20. Run with UPDATE=1 to
# rewrite goldens/grid_*_reps20.csv and goldens/figures_reps20.json
# after an intentional physics change.
nightly-grid:
	$(GO) build -o /tmp/hadoopsim-ci ./cmd/hadoopsim
	for s in twojob pressure cluster; do \
		for i in 0 1 2; do \
			/tmp/hadoopsim-ci -sweep $$s -reps 20 -seed 1 -shard $$i/3 > /tmp/grid-$$s-$$i.json || exit 1; done; \
		/tmp/hadoopsim-ci -merge -format csv /tmp/grid-$$s-0.json /tmp/grid-$$s-1.json /tmp/grid-$$s-2.json \
			> /tmp/grid-$$s.csv || exit 1; \
		$(if $(UPDATE),cp /tmp/grid-$$s.csv goldens/grid_$${s}_reps20.csv;,) \
		cmp goldens/grid_$${s}_reps20.csv /tmp/grid-$$s.csv || exit 1; \
	done
	/tmp/hadoopsim-ci -figures all -reps 20 -seed 1 -format json > /tmp/figures-reps20.json
	$(if $(UPDATE),cp /tmp/figures-reps20.json goldens/figures_reps20.json,)
	cmp goldens/figures_reps20.json /tmp/figures-reps20.json

ci: build vet fmt-check test bench bench-golden sweep-check backend-check examples-check replay-check dist-check
