# RASED build and experiment targets. Everything is plain `go` underneath;
# the Makefile just names the common invocations.

GO ?= go

.PHONY: all build test check ci lint race vet chaos covergate bench bench-e2e bench-smoke bench-faults bench-footprint bench-live bench-cluster bench-qos figures examples clean

all: build test

build:
	$(GO) build ./...
	$(GO) build -o bin/ ./cmd/...

test: check
	$(GO) test ./...

# check is the pre-commit gate: vet, the project's own static analysis
# (cmd/rased-lint, see DESIGN.md "Enforced invariants"), and the full tree
# under the race detector.
check: vet lint race

# ci is the full pipeline a hosted runner would execute. The chaos suite
# certifies the degraded-mode contract at volume, and the -quick figure runs
# smoke-test their harnesses end to end; -quick prints and writes no
# BENCH_*.json, so ci never replaces committed full-scale results. The lint
# run also leaves a machine-readable report at bin/lint-report.json, and the
# analyzer suite itself (call graph, interprocedural rules, fixtures) runs
# under the race detector explicitly so a lint-framework regression cannot
# hide behind a cached ./... run.
ci: build vet lint race chaos
	$(GO) test ./...
	$(GO) test -race -count=1 ./internal/analysis/...
	$(GO) run ./cmd/rased-lint -json > bin/lint-report.json
	bin/rased-bench -fig footprint -quick
	bin/rased-bench -fig live -quick
	bin/rased-bench -fig cluster -quick
	bin/rased-bench -fig qos -quick

# chaos is the fault-injection gate: the chaos harness at full query volume
# under the race detector (DESIGN.md "Fault model & degraded mode"), the
# crash-consistency and fallback suites, then the coverage floor on the
# resilient read path (scripts/covergate.sh).
chaos:
	RASED_CHAOS_QUERIES=10000 $(GO) test -race -count=1 ./internal/faultstore/...
	$(GO) test -race -count=1 ./internal/tindex ./internal/core ./internal/pagestore
	sh scripts/covergate.sh

covergate:
	sh scripts/covergate.sh

# lint runs RASED's project-specific analyzers: the single-function rules
# (context flow, lock-held I/O, metric registration, error wrapping,
# determinism, pool ownership, storage fault paths, epoch immutability, RPC
# deadlines) and the interprocedural ones (whole-program lock-order deadlock
# detection, exact-or-typed error surfaces, compiler-verified zero-alloc hot
# paths). Audited exceptions live in .rased-lint.allow (none at the moment);
# `go run ./cmd/rased-lint -prune` drops entries that have gone stale.
lint:
	$(GO) run ./cmd/rased-lint

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Shrunk concurrency experiment: a fast end-to-end sanity run of the exec
# subsystem (parallel fetches, singleflight, admission) on a real workspace.
bench-smoke: build
	bin/rased-bench -fig conc -quick

# The end-to-end benchmark BENCHMARK.json declares (bench/README.md): HTTP
# request in, rows out, through the shipped server with its default flags,
# one untraced run per workload. The last stdout line of each run is its
# JSON result; add `--trace 1` by hand for the per-layer breakdown.
bench-e2e:
	for w in dash.recent dash.history export.scan live.mixed routed.history; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 10 --trace 0 || exit 1; \
	done

# Chaos availability sweep: fault rates 0 / 0.1% / 1% with degraded-mode
# fallback on and off, through the same harness as `make chaos`. Writes the
# committed BENCH_faults.json.
bench-faults: build
	bin/rased-bench -fig faults

# Footprint figure: compressed cold tier vs dense v1 pages at 1x and 10x
# load — index bytes per update and p50/p99 latency through each tier. Gated
# (>=5x bytes/update reduction at 10x, cold p99 <= 1.2x dense); writes the
# committed BENCH_footprint.json. The -quick variant runs inside `make ci`.
bench-footprint: build
	bin/rased-bench -fig footprint

# Live-ingest figure: sustained epoch publication under concurrent dashboard
# load — ingest lag quantiles, QPS vs the quiesced baseline, and the
# zero-torn-read contract. Writes the committed BENCH_live.json. The -quick
# variant of the same figure runs inside `make ci`.
bench-live: build
	bin/rased-bench -fig live

# Cluster scale-out figure: scatter-gather QPS at 1/4/8 shards under the
# Zipf-skewed dashboard mix, plus hedged-vs-unhedged tail latency with
# injected RPC hiccups. Gated (>=3x at 8 shards, hedged p99 <= 0.8x); writes
# the committed BENCH_cluster.json. The -quick 2-shard smoke runs in `make ci`.
bench-cluster: build
	bin/rased-bench -fig cluster

# Multi-tenant QoS figure: the deterministic dashboard-traffic model replayed
# under priority vs FIFO admission, the result-cache hit share, and the
# composed chaos run (overload + faults + live folds at once). Gated
# (interactive p99 under bulk <= 2x uncontended, no starved tenant, cache
# hits > 30%, composed run 0 wrong / 0 untyped); writes the committed
# BENCH_qos.json. The -quick variant runs inside `make ci`.
bench-qos: build
	bin/rased-bench -fig qos

# Regenerate every figure of the paper's evaluation (EXPERIMENTS.md).
figures: build
	bin/rased-bench -fig all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/country_analysis
	$(GO) run ./examples/roadtype_analysis
	$(GO) run ./examples/timeseries_comparison
	$(GO) run ./examples/sample_updates

clean:
	rm -rf bin
