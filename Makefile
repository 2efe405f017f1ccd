# elastisched build and reproduction targets.

GO ?= go

.PHONY: all build vet test race cover bench bench-json bench-gate fuzz scale-smoke chaos malleable-smoke repro repro-check examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	gofmt -l . && $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Regenerate every paper figure/table as benchmarks (also records the
# reproduction report to bench_output.txt).
bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Re-run the packing-kernel, event-kernel, and end-to-end sweep
# benchmarks and replace their rows in the BENCH.json ledger (see
# DESIGN.md, "Packing-engine performance" and "End-to-end simulation
# throughput"). Commit the updated ledger whenever kernel or engine
# performance work lands.
bench-json:
	$(GO) run ./cmd/benchjson

# Gate the current tree against the committed BENCH.json ledger: fails
# when any recorded benchmark regressed past the tolerance factor (loose on
# ns/op, which is machine-sensitive; tight on deterministic alloc counts).
bench-gate:
	$(GO) run ./cmd/benchgate

# Short fuzz pass over the trace parsers, the DP packing kernels, the
# persistent capacity profile, the fault-trace parser, the indexed machine
# differential, and interleaved malleable operations (CI's fuzz smoke runs
# this target). -fuzz is a regexp that must match exactly one target, hence
# the anchors.
fuzz:
	$(GO) test -run=NONE -fuzz='^FuzzParseLine$$' -fuzztime=10s ./internal/cwf
	$(GO) test -run=NONE -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/cwf
	$(GO) test -run=NONE -fuzz='^FuzzDPEquivalence$$' -fuzztime=10s ./internal/core
	$(GO) test -run=NONE -fuzz='^FuzzProfileOps$$' -fuzztime=10s ./internal/sched
	$(GO) test -run=NONE -fuzz='^FuzzFaultTrace$$' -fuzztime=10s ./internal/fault
	$(GO) test -run=NONE -fuzz='^FuzzMachineIndexed$$' -fuzztime=10s ./internal/machine
	$(GO) test -run=NONE -fuzz='^FuzzMalleableOps$$' -fuzztime=10s ./internal/engine

# Scale-out smoke: the sharded-dispatch determinism bar (every routing
# policy x 1/2/4/8 workers), the routing/exact-merge suite, the epoch
# protocol's stealing-determinism and property suite, one iteration each of
# the skewed routing and stealing benchmarks, and the indexed machine at
# M=32k, under the race detector (mirrors CI's scale-smoke).
scale-smoke:
	$(GO) test -race -run 'TestSharded|TestRout|TestRoute|TestLeastWork|TestBestFit|TestMerged|TestSingleCluster' -count=1 ./internal/dispatch
	$(GO) test -race -run 'TestEpoch|TestSteal|TestAffinity|TestCommandsFollow' -count=1 ./internal/dispatch
	$(GO) test -run=NONE -bench='BenchmarkShardedSkewE2E/route=.*/clusters=8' -benchtime=1x ./internal/dispatch
	$(GO) test -run=NONE -bench='BenchmarkShardedStealE2E' -benchtime=1x ./internal/dispatch
	$(GO) test -race -run=NONE -bench='BenchmarkMachineScale/indexed/M=32k' -benchtime=1x ./internal/machine

# Chaos harness: every registry algorithm under seeded node-group fault
# traces and retry policies, each schedule certified by the audit oracle,
# plus mid-outage snapshot/restore round trips (see DESIGN.md section 10).
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 -v ./internal/experiment

# Malleability smoke: the -M decorated policies under Contiguous x Faults
# chaos with the resize-lawfulness audit rules, the work-conservation
# property under adversarial random resize streams, and a short
# interleaved-ops fuzz pass (mirrors CI's chaos-smoke malleable cell).
malleable-smoke:
	$(GO) test -race -run 'TestChaosMalleable' -count=1 -v ./internal/experiment
	$(GO) test -race -run 'TestPropertyResizeWorkConservation' -count=1 ./internal/engine
	$(GO) test -run=NONE -fuzz=FuzzMalleableOps -fuzztime=10s ./internal/engine

# Full evaluation suite with TSV outputs under results/.
repro:
	$(GO) run ./cmd/expsuite -out results

# Regenerate the full evaluation suite into a scratch directory and fail
# unless every file is byte-identical to the committed results/.
repro-check:
	@out=$$(mktemp -d) && trap 'rm -rf "$$out"' EXIT && \
		$(GO) run ./cmd/expsuite -no-plots -out "$$out" >/dev/null && diff -r "$$out" results

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/heterogeneous
	$(GO) run ./examples/elastic
	$(GO) run ./examples/tracereplay
	$(GO) run ./examples/fragmentation

clean:
	rm -rf results test_output.txt bench_output.txt
