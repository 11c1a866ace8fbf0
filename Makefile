# Development targets. `make ci` is the full gate: formatting, vet,
# build, the test suite under the race detector (the observability
# layer, the parallel sweep runner and the partitioned wake engine are
# concurrency-safe by contract, so races are release blockers), the
# benchmark module's tests (its golden cross-checks), short fuzzes of
# the topology spec parser, the spec-to-build-to-run path, the comm
# trace parser and the flit segment/reassemble and stitch/unstitch
# encodings, the docs checks, and race-instrumented
# smokes of the parallel sweep runner and the sharded engine end to end.

GO ?= go

.PHONY: ci fmt vet build test race benchmark-test bench bench-micro bench-micro-smoke \
	fuzz-smoke topo-dot docs-check arch-dot sweep-smoke sweep-small \
	staticcheck timeline-smoke comm-smoke flow-smoke shard-smoke scale-smoke loc sweep-check

ci: fmt vet staticcheck build race benchmark-test fuzz-smoke docs-check bench-micro-smoke \
	sweep-smoke timeline-smoke comm-smoke flow-smoke shard-smoke scale-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Gated: runs only where the tool is installed, so CI environments
# without it still pass the rest of the gate.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed; skipping"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Non-test Go lines outside the benchmark module: the size gate that
# simplicity changes quote before and after.
loc:
	@git ls-files '*.go' | grep -v _test.go | grep -v '^benchmark/' | xargs cat | wc -l

# The benchmark is a module of its own (benchmark/go.mod), so the root
# ./... patterns skip it; its tests re-check the committed goldens
# against the simulator's current sources. -short skips full-size cells.
benchmark-test:
	cd benchmark && $(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./internal/obs/ ./...

# The engine/queue/scheduler/fabric hot-path micro-benchmarks that the
# wake-scheduled engine work is measured by, plus the flow backend's
# set-up and solve costs (network compilation at 512 GPUs, plan
# generation, one alltoall solve), the flit pool's segment/stitch/
# reassemble path, the NetCrafter controller's trim/stitch/pool/eject
# path, the cache's lookup, fill and MSHR paths, cycle-backend system
# set-up (cluster.Build on 64-GPU and 8-GPU fabrics) and one
# steady-state remote write through a built system.
# `bench-micro` gives real numbers; `bench-micro-smoke` (in ci) just
# proves they still compile, run, and hold their 0 allocs/op pins
# (among them the MSHR, the workload programs' Next, a page walk and a
# local read through L1, L2 and DRAM).
bench-micro:
	$(GO) test -run='^$$' -bench='BenchmarkEngine|BenchmarkQueue|BenchmarkScheduler' \
		-benchmem -count=3 ./internal/sim
	$(GO) test -run='^$$' -bench='BenchmarkMSHRAllocateRelease|BenchmarkLookupHit|BenchmarkFillEvictChurn' \
		-benchmem -count=3 ./internal/cache
	$(GO) test -run='^$$' -bench='BenchmarkSwitch|BenchmarkLink' \
		-benchmem -count=3 ./internal/network
	$(GO) test -run='^$$' -bench='BenchmarkTxn' \
		-benchmem -count=3 ./internal/txn
	$(GO) test -run='^$$' -bench='BenchmarkTimeline' \
		-benchmem -count=3 ./internal/obs/timeline
	$(GO) test -run='^$$' -bench='BenchmarkShard' \
		-benchmem -count=3 ./internal/shard
	$(GO) test -run='^$$' -bench='BenchmarkNewNetwork|BenchmarkFlowRun' \
		-benchmem -count=3 ./internal/flow
	$(GO) test -run='^$$' -bench='BenchmarkCommGen' \
		-benchmem -count=3 ./internal/comm
	$(GO) test -run='^$$' -bench='BenchmarkSegment|BenchmarkStitch|BenchmarkReassemble' \
		-benchmem -count=3 ./internal/flit
	$(GO) test -run='^$$' -bench='BenchmarkController' \
		-benchmem -count=3 ./internal/core
	$(GO) test -run='^$$' -bench='BenchmarkBuild|BenchmarkRemoteWrite' \
		-benchmem -count=3 ./internal/cluster

bench-micro-smoke:
	$(GO) test -run='NoAllocs' -bench='BenchmarkEngine|BenchmarkQueue|BenchmarkScheduler' \
		-benchmem -count=1 -benchtime=100x ./internal/sim
	$(GO) test -run='NoAllocs' -bench='BenchmarkMSHRAllocateRelease|BenchmarkLookupHit|BenchmarkFillEvictChurn' \
		-benchmem -count=1 -benchtime=100x ./internal/cache
	$(GO) test -count=1 -run='NoAllocs' ./internal/workload ./internal/vm
	$(GO) test -run='NoAllocs' -bench='BenchmarkSwitch|BenchmarkLink' \
		-benchmem -count=1 -benchtime=100x ./internal/network
	$(GO) test -run='NoAllocs' -bench='BenchmarkTxn' \
		-benchmem -count=1 -benchtime=100x ./internal/txn
	$(GO) test -run='NoAllocs' -bench='BenchmarkTimelineDetached' \
		-benchmem -count=1 -benchtime=100x ./internal/obs/timeline
	$(GO) test -run='NoAllocs' -bench='BenchmarkShard' \
		-benchmem -count=1 -benchtime=100x ./internal/shard
	$(GO) test -run='^$$' -bench='BenchmarkNewNetwork|BenchmarkFlowRun' \
		-benchmem -count=1 -benchtime=10x ./internal/flow
	$(GO) test -run='^$$' -bench='BenchmarkCommGen' \
		-benchmem -count=1 -benchtime=10x ./internal/comm
	$(GO) test -run='NoAllocs' -bench='BenchmarkSegment|BenchmarkStitch|BenchmarkReassemble' \
		-benchmem -count=1 -benchtime=100x ./internal/flit
	$(GO) test -run='^$$' -bench='BenchmarkController' \
		-benchmem -count=1 -benchtime=100x ./internal/core
	$(GO) test -run='^$$' -bench='BenchmarkBuild' \
		-benchmem -count=1 -benchtime=2x ./internal/cluster
	$(GO) test -run='NoAllocs' -bench='BenchmarkRemoteWrite' \
		-benchmem -count=1 -benchtime=100x ./internal/cluster

fuzz-smoke:
	$(GO) test -fuzz=FuzzTopoParse -fuzztime=5s -run='^$$' ./internal/topo
	$(GO) test -fuzz=FuzzBuild -fuzztime=5s -run='^$$' ./internal/cluster
	$(GO) test -fuzz=FuzzTraceParse -fuzztime=5s -run='^$$' ./internal/comm
	$(GO) test -fuzz=FuzzSegmentReassemble -fuzztime=5s -run='^$$' ./internal/flit
	$(GO) test -fuzz=FuzzStitchUnstitch -fuzztime=5s -run='^$$' ./internal/flit

# Every package must carry a package-level doc comment, and the
# committed architecture DOT must match the current import graph.
# The package list comes from `go list` so nested packages (e.g.
# internal/obs/timeline) are covered too.
docs-check:
	@missing=0; \
	for d in . $$($(GO) list -f '{{.Dir}}' ./internal/...); do \
		if ! grep -qs '^// Package ' $$d/*.go; then \
			echo "docs-check: missing '// Package' comment in $$d"; missing=1; fi; \
	done; \
	for d in cmd/*; do \
		if ! grep -qs '^// Command ' $$d/*.go; then \
			echo "docs-check: missing '// Command' comment in $$d"; missing=1; fi; \
	done; \
	[ $$missing -eq 0 ]
	@$(MAKE) -s arch-dot ARCH_DOT=/tmp/netcrafter-arch.dot; \
	if ! diff -u docs/architecture.dot /tmp/netcrafter-arch.dot; then \
		echo "docs-check: docs/architecture.dot is stale; run 'make arch-dot'"; exit 1; fi

# Regenerate the internal-package dependency graph committed at
# docs/architecture.dot (see docs/ARCHITECTURE.md).
ARCH_DOT ?= docs/architecture.dot
arch-dot:
	@{ \
	printf '%s\n' \
	  '// Internal package dependency graph. Generated — do not edit by hand:' \
	  '// regenerate with `make arch-dot` after changing imports, and keep the' \
	  '// committed copy in sync (make docs-check diffs it).' \
	  'digraph netcrafter {' \
	  '  rankdir=BT;' \
	  '  node [shape=box, fontname="Helvetica", fontsize=11];' \
	  '' \
	  '  // Layers, foundation at the bottom (edges point at dependencies).' \
	  '  { rank=same; sim; names; }' \
	  '  { rank=same; "obs/timeline"; }' \
	  '  { rank=same; obs; stats; workload; }' \
	  '  { rank=same; cache; topo; lasp; }' \
	  '  { rank=same; txn; }' \
	  '  { rank=same; flit; }' \
	  '  { rank=same; network; dram; }' \
	  '  { rank=same; vm; core; }' \
	  '  { rank=same; gpu; }' \
	  '  { rank=same; comm; }' \
	  '  { rank=same; flow; shard; }' \
	  '  { rank=same; cluster; }' \
	  '  { rank=same; bench; }' \
	  ''; \
	$(GO) list -f '{{.ImportPath}}{{range .Imports}} {{.}}{{end}}' ./internal/... | \
	awk '{ from=$$1; sub("netcrafter/internal/","",from); \
	       for(i=2;i<=NF;i++) if ($$i ~ /^netcrafter\/internal\//) { \
	         to=$$i; sub("netcrafter/internal/","",to); \
	         printf "  \"%s\" -> \"%s\";\n", from, to } }' | sort; \
	printf '}\n'; \
	} > $(ARCH_DOT)

# Race-instrumented end-to-end smoke of the parallel sweep runner:
# tiny scale so the race detector's overhead stays in CI budget.
sweep-smoke:
	$(GO) run -race ./cmd/netcrafter-bench -exp fig3 -scale tiny -parallel 8 \
		-manifest /tmp/netcrafter-sweep-smoke.json -q > /dev/null
	$(GO) run -race ./cmd/netcrafter-bench -exp fig3 -scale tiny -parallel 8 \
		-manifest /tmp/netcrafter-sweep-smoke.json -resume -q > /dev/null

# End-to-end smoke of the timeline exporter: a tiny NetCrafter run must
# produce a Chrome Trace Event JSON document Perfetto would accept (one
# object with a traceEvents array) carrying the controller's stitch
# count track, plus the heatmap and component profile on stdout. The schema details are pinned by the cmd/netcrafter-sim tests;
# this proves the shipped binary path works.
timeline-smoke:
	$(GO) run ./cmd/netcrafter-sim -workload GUPS -scale tiny -config netcrafter \
		-timeline /tmp/netcrafter-timeline-smoke.json -heatmap -profile-components \
		> /tmp/netcrafter-timeline-smoke.txt
	@grep -q '"traceEvents"' /tmp/netcrafter-timeline-smoke.json || \
		{ echo "timeline-smoke: no traceEvents in export"; exit 1; }
	@grep -q '"name":"nc0.stitch"' /tmp/netcrafter-timeline-smoke.json || \
		{ echo "timeline-smoke: no nc0.stitch count track in export"; exit 1; }
	@grep -q 'congestion heatmap' /tmp/netcrafter-timeline-smoke.txt || \
		{ echo "timeline-smoke: heatmap missing"; exit 1; }
	@grep -q 'component profile' /tmp/netcrafter-timeline-smoke.txt || \
		{ echo "timeline-smoke: component profile missing"; exit 1; }

# Race-instrumented smoke of the communication-program subsystem: a
# small ring all-reduce and a short open-loop serving run through the
# shipped binary, checking the bandwidth line and the p999 tail are
# reported.
comm-smoke:
	$(GO) run -race ./cmd/netcrafter-sim -comm ring-allreduce -scale tiny \
		-config baseline > /tmp/netcrafter-comm-smoke.txt
	$(GO) run -race ./cmd/netcrafter-sim -comm serve-poisson -scale tiny \
		-requests 48 >> /tmp/netcrafter-comm-smoke.txt
	@grep -q 'busbw=' /tmp/netcrafter-comm-smoke.txt || \
		{ echo "comm-smoke: no bus bandwidth reported"; exit 1; }
	@grep -q 'p999' /tmp/netcrafter-comm-smoke.txt || \
		{ echo "comm-smoke: no latency tail reported"; exit 1; }

# End-to-end smoke of the analytic flow backend: a collective and an
# open-loop serving run through the shipped sim binary, checking the
# bandwidth line and the p999 tail (the serving run drives the flow
# backend's request accounting, comm.Tracker's), the flow-backend bench
# sweep writing a manifest tagged "backend": "flow", and the fidelity
# gate refusing a cycle-only experiment under -backend flow.
flow-smoke:
	$(GO) run ./cmd/netcrafter-sim -backend flow -comm ring-allreduce \
		-scale tiny > /tmp/netcrafter-flow-smoke.txt
	$(GO) run ./cmd/netcrafter-sim -backend flow -comm serve-poisson \
		-scale tiny >> /tmp/netcrafter-flow-smoke.txt
	@grep -q 'busbw=' /tmp/netcrafter-flow-smoke.txt || \
		{ echo "flow-smoke: no bus bandwidth reported"; exit 1; }
	@grep -q 'p999' /tmp/netcrafter-flow-smoke.txt || \
		{ echo "flow-smoke: no latency tail reported"; exit 1; }
	$(GO) run -race ./cmd/netcrafter-bench -backend flow -exp ext-collective \
		-scale tiny -parallel 8 -manifest /tmp/netcrafter-flow-smoke.json -q > /dev/null
	@grep -q '"backend": "flow"' /tmp/netcrafter-flow-smoke.json || \
		{ echo "flow-smoke: manifest not tagged with the flow backend"; exit 1; }
	@if $(GO) run ./cmd/netcrafter-bench -backend flow -exp fig3 -scale tiny \
		-manifest off -q >/dev/null 2>/tmp/netcrafter-flow-smoke.err; then \
		echo "flow-smoke: fidelity gate let fig3 run on the flow backend"; exit 1; \
	else grep -q 'cycle backend' /tmp/netcrafter-flow-smoke.err || \
		{ echo "flow-smoke: gate error does not name the cycle backend"; exit 1; }; fi

# Race-instrumented smoke of the partitioned wake engine: the same
# fig3-small cell serial and at 2 shards through the shipped binary,
# byte-compared — the sharded engine must be bit-identical to serial
# (DESIGN.md section 2.15) and race-clean while proving it. The 2-shard
# -profile-components table must merge the two shard schedulers into
# one sched row (System.Profile).
shard-smoke:
	$(GO) run -race ./cmd/netcrafter-sim -workload GUPS -scale tiny \
		-topo frontier-4x2 > /tmp/netcrafter-shard-serial.txt
	$(GO) run -race ./cmd/netcrafter-sim -workload GUPS -scale tiny \
		-topo frontier-4x2 -shards 2 > /tmp/netcrafter-shard-sh2.txt
	@cmp /tmp/netcrafter-shard-serial.txt /tmp/netcrafter-shard-sh2.txt || \
		{ echo "shard-smoke: 2-shard run diverged from serial"; exit 1; }
	$(GO) run -race ./cmd/netcrafter-sim -workload GUPS -scale tiny \
		-topo frontier-4x2 -shards 2 -profile-components > /tmp/netcrafter-shard-profile.txt
	@n=$$(grep -c '^  sched ' /tmp/netcrafter-shard-profile.txt); [ "$$n" = 1 ] || \
		{ echo "shard-smoke: $$n sched rows in the 2-shard component profile, want 1"; exit 1; }
	@if $(GO) run ./cmd/netcrafter-sim -shards 2 -heatmap -workload GUPS -scale tiny \
		>/dev/null 2>/tmp/netcrafter-shard-smoke.err; then \
		echo "shard-smoke: observability gate let -heatmap run sharded"; exit 1; \
	else grep -q 'serial engine' /tmp/netcrafter-shard-smoke.err || \
		{ echo "shard-smoke: gate error does not name the serial engine"; exit 1; }; fi

# Race-instrumented smoke of the scale-out fabrics: build the 64-GPU
# fat-tree, check the multi-level placement invariant (the spliced
# controller count equals the fabric's bandwidth taper-point count),
# and run one flow-backend collective cell on it end to end.
scale-smoke:
	$(GO) run -race ./cmd/netcrafter-sim -topo fattree-64 -topo-info \
		> /tmp/netcrafter-scale-smoke.txt
	@taper=$$(awk '/^taper-points:/ {print $$2}' /tmp/netcrafter-scale-smoke.txt); \
	ctl=$$(awk '/^controllers:/ {print $$2}' /tmp/netcrafter-scale-smoke.txt); \
	[ -n "$$taper" ] && [ "$$taper" = "$$ctl" ] || \
		{ echo "scale-smoke: $$ctl controllers for $$taper taper points"; exit 1; }
	$(GO) run -race ./cmd/netcrafter-sim -backend flow -comm ring-allreduce \
		-scale tiny -topo fattree-64 > /tmp/netcrafter-scale-flow.txt
	@grep -q 'busbw=' /tmp/netcrafter-scale-flow.txt || \
		{ echo "scale-smoke: no bus bandwidth reported on the fat-tree"; exit 1; }

# The committed perf trajectory: the full small-scale sweep, every
# experiment, writing BENCH_small.json (resumable; see EXPERIMENTS.md).
sweep-small:
	$(GO) run ./cmd/netcrafter-bench -exp all -scale small -parallel 8 -resume > results_small.txt

# The committed sweep is current: rerun every experiment at small scale
# and byte-compare the reports with results_small.txt. Too slow for
# `make ci` (about 2.5 minutes on 2 vCPUs); run it before regenerating
# BENCH_small.json and whenever a change claims identical outputs.
sweep-check:
	$(GO) run ./cmd/netcrafter-bench -exp all -scale small -manifest off -q \
		> /tmp/netcrafter-sweep-check.txt
	@cmp /tmp/netcrafter-sweep-check.txt results_small.txt || \
		{ echo "sweep-check: the small sweep no longer reproduces results_small.txt"; exit 1; }

# Render the 8-GPU / 4-cluster preset as Graphviz dot on stdout
# (pipe through `dot -Tsvg` to visualize).
topo-dot:
	$(GO) run ./cmd/netcrafter-sim -topo frontier-8x4 -dot -
