# The full gate a change must pass before merging. Each layer catches a
# different bug class:
#   build       — it compiles;
#   vet         — the stock Go correctness checks;
#   lint        — the LeiShen domain suite (cmd/leishenlint): overflow-error
#                 discipline, deterministic map iteration, lock hygiene,
#                 purity of the detection pipeline, fsync discipline in the
#                 storage layer, and the flow-sensitive analyzers (lost
#                 errors, leaked goroutines, order taint); emits lint.json
#                 as a machine-readable artifact;
#   test        — the unit and scenario suites;
#   race        — the concurrent surfaces (detector arena pool, HTTP
#                 server, scan pool, chain, token registry, archive,
#                 follower) and the parallel lint driver under the race
#                 detector;
#   bench-smoke — the scan, archive and lint benches still run end to
#                 end (small shapes, JSON to stdout, nothing recorded),
#                 with the scan gate's allocation budget enforced (its
#                 throughput check skips: the smoke corpus differs from
#                 the committed one);
#   bench-serve-smoke — the HTTP serve benchmark on a tiny archive; it
#                 hard-fails unless /reports and /reports/{hash} serve
#                 bodies byte-identical to json.NewEncoder output for the
#                 expected page and a /reports page allocates below the
#                 shape's ceiling, so it doubles as a correctness gate;
#   bench-metrics-smoke — the telemetry overhead proof; it hard-fails
#                 when an instrumented scan runs >3% slower than a bare
#                 one or allocates on the per-transaction path;
#   bench-scan-smoke — the detection hot-path budget; it re-measures the
#                 committed corpus and hard-fails when steady-state
#                 allocations exceed 2 per transaction or sequential
#                 throughput drops >10% below the committed
#                 BENCH_scan.json baseline;
#   fault-smoke — the crash-consistency torture matrix: every archive
#                 write schedule is crashed at every mutating operation,
#                 recovered under durable/volatile/torn disk variants,
#                 and checked against the recovery invariants; any
#                 violation hard-fails the gate (bounded: ~250 crash
#                 points, runs in seconds);
#   fuzz-smoke  — short fuzz passes over the archive's record decoder,
#                 the sidecar-index decoder, and the uint256 small-value
#                 fast paths (differential against math/big).
.PHONY: check build vet lint test race bench bench-smoke bench-serve-smoke bench-metrics-smoke bench-scan-smoke fault-smoke fuzz-smoke

check: build vet lint test race bench-smoke bench-serve-smoke bench-metrics-smoke bench-scan-smoke fault-smoke fuzz-smoke

build:
	go build ./...

# vet also covers perfbench/, which is its own module, so the root
# ./... pattern does not reach it.
vet:
	go vet ./...
	cd perfbench && go vet ./...

lint:
	go run ./cmd/leishenlint -strict-waivers -json-out lint.json ./...

test:
	go test ./...

race:
	go test -race ./internal/core/... ./internal/serve/... ./internal/evm/... ./internal/token/... ./internal/scan/... ./internal/archive/... ./internal/follower/... ./internal/analysis/... ./internal/metrics/... ./internal/vfs/...

# bench runs every named bench of cmd/benchjson and records six files:
# scan throughput + allocation figures to BENCH_scan.json, archive
# append/reopen figures to BENCH_archive.json, per-analyzer lint wall
# time to BENCH_lint.json, zero-decode HTTP read-path throughput and
# allocations to BENCH_serve.json, the telemetry overhead proof to
# BENCH_metrics.json and the torture matrix to BENCH_fault.json
# (tracked; regenerate when the hot path, the storage layer, the
# analysis suite, the serving layer, or the instrumentation changes).
# Each result is written before its gate runs; the scan gate compares
# against the BENCH_scan.json committed before the run, read before it
# is overwritten. A failed gate fails the target after every bench ran.
bench:
	go run ./cmd/benchjson

bench-smoke:
	go run ./cmd/benchjson -smoke -o - scan archive lint

bench-serve-smoke:
	go run ./cmd/benchjson -smoke -o - serve

bench-metrics-smoke:
	go run ./cmd/benchjson -smoke -o - metrics

# bench-scan-smoke re-runs the scan bench on the same corpus shape as the
# committed BENCH_scan.json and enforces the hot-path contract: at most
# 2 steady-state allocations per transaction, sequential throughput
# within 10% of the committed figure.
bench-scan-smoke:
	go run ./cmd/benchjson -o - scan

# fault-smoke runs the crash-consistency torture matrix to stdout and
# hard-fails on any invariant violation — the fast, deterministic form
# of the fault gate (the full bench records it to BENCH_fault.json).
fault-smoke:
	go run ./cmd/benchjson -o - fault

# fuzz-smoke hammers the segment decoder and the sidecar-index decoder
# with mutated bytes (no input may panic, mis-frame, or decode to a
# record/index that re-encodes differently), and the uint256 small-value
# fast paths differentially against math/big (every arithmetic result,
# rendering, and comparison must agree on mixed-limb operands).
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzSegmentDecode -fuzztime 8s ./internal/archive
	go test -run '^$$' -fuzz FuzzSidecarDecode -fuzztime 8s ./internal/archive
	go test -run '^$$' -fuzz FuzzUint256FastPath -fuzztime 8s ./internal/uint256
