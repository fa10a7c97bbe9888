# XMem reproduction build targets. Everything is stdlib-only Go; the
# Makefile just names the common invocations.

GO ?= go

.PHONY: all build test test-short vet xmem-vet vet-json vet-hotpath \
        infer-validate lint fmtcheck check bench-test alloc-gate race \
        fuzz-smoke sweep-smoke metrics-smoke trace-smoke cli-smoke experiments experiments-paper \
        examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# xmem-vet statically checks every XMemLib call site against the Atom
# contract and the declared attributes against provable access shapes (see
# DESIGN.md, "Correctness tooling"). Exits non-zero on any finding.
xmem-vet:
	$(GO) run ./cmd/xmem-vet ./...

# Machine-readable findings for trend tracking: writes the xmem-vet/v2
# schema to results_vet.json (validate with xmem-inspect -vet). The file
# is written even when the run reports findings, so the trend captures
# them.
vet-json:
	$(GO) run ./cmd/xmem-vet -json ./... > results_vet.json; \
		status=$$?; $(GO) run ./cmd/xmem-inspect -vet results_vet.json; exit $$status

# Static proof of the hot-path contracts: every //xmem:allocfree function
# (the AMU lookup path) must be provably allocation-free and every
# //xmem:statsneutral function (the Peek family and the span tracer's stage
# recorders) provably free of stats/counter/LRU mutations, transitively
# through the call graph. The static twin of alloc-gate and
# TestSpanTimingNeutral; exits non-zero on any finding (see DESIGN.md,
# "Hot-path contracts").
vet-hotpath:
	$(GO) run ./cmd/xmem-vet -run allocfree,statsneutral ./...

# Simulator differential of the attrinfer pipeline: declaring the inferred
# attributes must not make the memory system worse (L3 hit rate down and
# cycles up), on one tiled kernel and one synthetic and in the inferdemo
# example. The static half runs in go test: TestRepoClean requires the tree
# to be inference-clean, and TestInferDemoProvenance re-applies the fixes
# to the preserved pre-fix example and requires the committed file.
infer-validate:
	$(GO) run ./cmd/xmem-sim -infer-smoke -workload gemm,libq
	$(GO) run ./examples/inferdemo -check > /dev/null

fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint = toolchain vet + race-checked metadata-plane tests + xmem-vet
# (machine-readable, schema-validated via vet-json).
lint: vet fmtcheck vet-json
	$(GO) test -race ./internal/core/... ./internal/sim/...

check: build vet fmtcheck test bench-test race alloc-gate fuzz-smoke vet-hotpath metrics-smoke trace-smoke sweep-smoke cli-smoke

# Allocation regression gate for the per-access path. In steady state the
# AMU lookup path (AMU.Lookup, Peek, LookupAttributes on ALB hit, miss+evict
# and unmapped pages), page-table translation, cpu.IssueMem under ROB and
# LSQ stalls, cache hits and misses with the probe on and off, the stride
# and XMem prefetchers' train+Drain, and DRAM writebacks and write-queue
# hits allocate nothing; DRAM reads allocate one 16-Future chunk per 16
# reads, 24 bytes per read, and a NUMA remote read's Offset exactly one
# object. On a warmed sim Machine an L1-hitting load allocates nothing and
# a thrashing stream at most one object per 16 DRAM reads plus one per
# channel. Memory-side bookkeeping grows with what is mapped: 4,096 fresh
# AAM pages cost at most 96 allocations, and building the banked or
# randomized frame allocator over 256 MiB a handful of objects and at most
# 4.5 bytes per frame. Cheap enough for every check/CI run.
alloc-gate:
	$(GO) test -run 'TestHotPath|TestProbeAllocs' -v ./internal/core/ \
		./internal/kernel/ ./internal/cpu/ ./internal/cache/ \
		./internal/prefetch/ ./internal/dram/ ./internal/mem/ ./internal/sim/

# Short coverage-guided runs of the reference-model differentials: the
# fingerprinted, fill-counted cache against the valid-array cache built on
# the frozen rescanning LRU and RRIP policies, the by-value DRAM
# controller against the pointer-queue one, the region frame allocator
# against the frozen hybrid and NUMA allocators it replaced, the lazy
# banked and randomized frame allocators against the eager ones they
# replaced (FuzzFrameAllocatorsMatchReference), the paged AAM
# and index-LRU ALB against their hash-map and list references
# (FuzzAMUMatchesReference), and the atom-indexed XMem prefetcher against
# the frozen map-keyed one (FuzzXMemPrefetcherMatchesReference); and four
# decoders, which must not panic and must round-trip every input they
# accept: the trace binary decoder (FuzzTraceRead), the atom segment
# decoder (FuzzDecodeSegment), the metrics validator (FuzzValidateJSON)
# and the span validator (FuzzValidateJSONL). Plain go test runs only
# their seed corpora (the allocators', the AMU's and the decoders' are
# committed under internal/kernel/testdata/fuzz/,
# internal/core/testdata/fuzz/, internal/trace/testdata/fuzz/,
# internal/obs/testdata/fuzz/ and internal/obs/span/testdata/fuzz/); this
# mutates inputs for a few seconds per target. A failing input is saved
# under the package's testdata/fuzz/ directory.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCacheMatchesReference$$' -fuzztime 5s ./internal/cache/
	$(GO) test -run '^$$' -fuzz '^FuzzControllerMatchesReference$$' -fuzztime 5s ./internal/dram/
	$(GO) test -run '^$$' -fuzz '^FuzzRegionAllocatorMatchesReference$$' -fuzztime 5s ./internal/kernel/
	$(GO) test -run '^$$' -fuzz '^FuzzFrameAllocatorsMatchReference$$' -fuzztime 5s ./internal/kernel/
	$(GO) test -run '^$$' -fuzz '^FuzzAMUMatchesReference$$' -fuzztime 5s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzXMemPrefetcherMatchesReference$$' -fuzztime 5s ./internal/prefetch/
	$(GO) test -run '^$$' -fuzz '^FuzzTraceRead$$' -fuzztime 5s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSegment$$' -fuzztime 5s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzValidateJSON$$' -fuzztime 5s ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzValidateJSONL$$' -fuzztime 5s ./internal/obs/span/

# Full race-detector pass over every package (the parallel sweep runner
# is the main concurrent surface).
race:
	$(GO) test -race ./...

# The four end-to-end smokes below write under SMOKE, a git-ignored
# directory inside the repo, so make check writes nothing outside it (the
# Go tool and the xmem-vet loader skip dot-directories).
SMOKE = .smoke

# End-to-end sweep smoke: a tiny 4-point parallel sweep, checkpointed,
# then resumed — the resume must restore every point and print the same
# reports. Exits non-zero on any difference.
sweep-smoke:
	rm -rf $(SMOKE)/sweep && mkdir -p $(SMOKE)/sweep
	$(GO) run ./cmd/xmem-sim -workload gemm,2mm,jacobi-2d,syrk -n 64 \
		-parallel 4 -checkpoint $(SMOKE)/sweep \
		> $(SMOKE)/sweep/first.txt
	$(GO) run ./cmd/xmem-sim -workload gemm,2mm,jacobi-2d,syrk -n 64 \
		-parallel 4 -checkpoint $(SMOKE)/sweep -resume \
		> $(SMOKE)/sweep/resumed.txt
	cmp $(SMOKE)/sweep/first.txt $(SMOKE)/sweep/resumed.txt

# End-to-end observability smoke: run a small kernel with metrics on, then
# validate the emitted schema-v1 JSON (both steps exit non-zero on schema
# violations).
metrics-smoke:
	mkdir -p $(SMOKE)
	$(GO) run ./cmd/xmem-sim -workload gemm -n 128 -system xmem \
		-metrics $(SMOKE)/xmem_metrics_smoke.json -epoch 50000 >/dev/null
	$(GO) run ./cmd/xmem-inspect -validate-metrics $(SMOKE)/xmem_metrics_smoke.json

# End-to-end causal-tracing smoke: run the Figure 4 thrash point with span
# sampling on, validate the emitted JSONL stream, and render the explain
# report (every step exits non-zero on malformed output).
trace-smoke:
	mkdir -p $(SMOKE)
	$(GO) run ./cmd/xmem-sim -workload gemm -n 96 -tile 262144 -l3 65536 \
		-system xmem -span-sample 50 \
		-span-out $(SMOKE)/xmem_trace_smoke.jsonl >/dev/null
	$(GO) run ./cmd/xmem-inspect -validate-spans $(SMOKE)/xmem_trace_smoke.jsonl
	$(GO) run ./cmd/xmem-trace explain -i $(SMOKE)/xmem_trace_smoke.jsonl >/dev/null

# Command-line smoke: build the five commands once, then check that each
# usage error below exits 2, before anything runs, that a small valid run
# exits 0, and that the workload listings name the extended kernels
# -workload accepts. A Go panic also exits 2, so a case whose stderr holds
# a goroutine trace fails too. Prints every case that behaves otherwise.
cli-smoke:
	mkdir -p $(SMOKE)/bin
	$(GO) build -o $(SMOKE)/bin/ ./cmd/...
	@b=$(SMOKE)/bin; fails=0; \
	exits() { want=$$1; shift; err=$$("$$@" 2>&1 >/dev/null); got=$$?; \
		case "$$err" in *"goroutine "*) echo "cli-smoke: $$* panicked"; fails=1; return;; esac; \
		if [ $$got -ne $$want ]; then echo "cli-smoke: $$* exited $$got, want $$want"; fails=1; fi; }; \
	prints() { want=$$1; shift; case "$$("$$@" 2>&1)" in *"$$want"*) ;; \
		*) echo "cli-smoke: $$* does not print $$want"; fails=1;; esac; }; \
	exits 2 $$b/xmem-sim -workload nosuch; \
	exits 2 $$b/xmem-sim -system bogus; \
	exits 2 $$b/xmem-sim -alloc bogus; \
	exits 2 $$b/xmem-sim -scheme bogus -n 32; \
	for v in 0 -8; do exits 2 $$b/xmem-sim -workload gemm -n $$v; done; \
	for v in 0 -1; do exits 2 $$b/xmem-sim -workload libq -scale $$v; done; \
	for v in 0 100000 1056; do exits 2 $$b/xmem-sim -workload gemm -n 32 -l3 $$v; done; \
	exits 2 $$b/xmem-sim -workload gemm -n 32 -bw -5; \
	exits 2 $$b/xmem-sim -multi -workload gemm,libq -metrics $(SMOKE)/cli_metrics.json; \
	for l in gemm,gemm gemm, gemm,nosuch; do exits 2 $$b/xmem-sim -workload $$l -n 32; done; \
	exits 2 $$b/xmem-trace; \
	exits 2 $$b/xmem-trace record -workload gemm; \
	exits 2 $$b/xmem-trace record -workload gemm -n 0 -o $(SMOKE)/cli.trc; \
	exits 2 $$b/xmem-trace record -workload libq -scale 0 -o $(SMOKE)/cli.trc; \
	for c in info profile replay explain; do exits 2 $$b/xmem-trace $$c; done; \
	for v in 0 1056; do exits 2 $$b/xmem-trace replay -i $(SMOKE)/cli.trc -l3 $$v; done; \
	exits 2 $$b/xmem-inspect -workload nosuch; \
	exits 2 $$b/xmem-inspect -placement nosuch; \
	for v in 0 100000; do exits 2 $$b/xmem-inspect -placement libq -banks $$v; done; \
	exits 2 $$b/xmem-bench -exp nosuch; \
	exits 2 $$b/xmem-bench -preset nosuch; \
	exits 2 $$b/xmem-bench -preset mini -exp alb -kernels nosuch; \
	exits 2 $$b/xmem-bench -preset mini -exp fig4 -kernels gemm,gemm; \
	exits 2 $$b/xmem-bench -preset mini -exp fig7 -workloads libq,; \
	exits 2 $$b/xmem-bench -resume; \
	exits 2 $$b/xmem-vet -run nosuch ./...; \
	exits 0 $$b/xmem-sim -workload gemm -n 32; \
	exits 0 $$b/xmem-sim -multi -workload gemm,gemm -n 32; \
	prints gesummv $$b/xmem-sim -list; \
	prints gesummv $$b/xmem-inspect; \
	exit $$fails

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The host-cost benchmark's own tests (bench/ is a separate module, so the
# root go test ./... never enters it): per-workload smoke runs checked
# against BENCHMARK.json, the replay-stack fidelity test, and the seed-1
# output goldens. Live numbers come from sh bench/run.sh (bench/README.md).
bench-test:
	cd bench && $(GO) test ./...

# Regenerate every figure/table at the fast preset (minutes): the files
# EXPERIMENTS.md cites.
experiments:
	$(GO) run ./cmd/xmem-bench -preset fast -exp all -json results_fast.json | tee results_fast.txt
	$(GO) run ./cmd/xmem-bench -preset fast -exp numa,ablation | tee results_ext.txt
	$(GO) run ./cmd/xmem-bench -preset fast -exp corun -kernels gemm,2mm,jacobi-2d | tee -a results_ext.txt

# Table 3 scale (hours).
experiments-paper:
	$(GO) run ./cmd/xmem-bench -preset paper -exp all -json results_paper.json | tee results_paper.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/compression
	$(GO) run ./examples/profiling
	$(GO) run ./examples/dramplacement
	$(GO) run ./examples/hashjoin
	$(GO) run ./examples/tiling
	$(GO) run ./examples/inferdemo -check

# Removes the build cache entries of this module and the git-ignored smoke
# and benchmark build outputs. The Go command leaves its module cache under
# .bench_build/gopath read-only, so write permission is restored first. The
# regenerated results_* files stay: make experiments takes minutes.
clean:
	$(GO) clean ./...
	chmod -R u+w $(SMOKE) .bench_build 2>/dev/null || true
	rm -rf $(SMOKE) .bench_build
