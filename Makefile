# RASED build and experiment targets. Everything is plain `go` underneath;
# the Makefile just names the common invocations.

GO ?= go

.PHONY: all build test check ci lint race vet chaos covergate bench bench-e2e figures examples clean

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
# certifies the degraded-mode contract at volume, and the analyzer suite
# itself (call graph, interprocedural rules, fixtures) runs under the race
# detector explicitly so a lint-framework regression cannot hide behind a
# cached ./... run.
ci: build vet lint race chaos
	$(GO) test ./...
	$(GO) test -race -count=1 ./internal/analysis/...

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

# lint runs RASED's ten project-specific analyzers: the single-function rules
# (context flow and ctx-aware retry loops, metric registration, error
# wrapping, determinism, pool ownership, epoch immutability, RPC deadlines)
# and the interprocedural ones (lock-held blocking and whole-program
# lock-order deadlock detection, exact-or-typed error surfaces,
# compiler-verified zero-alloc hot paths), and rejects any //rased: directive
# no rule reads. There is no allowlist: a finding is fixed in code.
lint:
	$(GO) run ./cmd/rased-lint

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The end-to-end benchmark BENCHMARK.json declares (bench/README.md): HTTP
# request in, rows out, through the shipped server with its default flags,
# one untraced run per workload. The last stdout line of each run is its
# JSON result; add `--trace 1` by hand for the per-layer breakdown.
bench-e2e:
	for w in dash.recent dash.history export.scan live.mixed routed.history; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 10 --trace 0 || exit 1; \
	done

# Regenerate the paper's evaluation (EXPERIMENTS.md): Figs 7-10, the Section
# VI-A size accounting, the Section VII-A cache ablations and the example
# queries of Figs 2-5.
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
