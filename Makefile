GO ?= go

# bench-json pipes go test into benchjson; pipefail makes a benchmark
# failure fail the recipe instead of being masked by the parser's exit 0.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

# Iterations for the recorded benchmark run; CI uses 1x for a smoke-grade
# artifact, local runs should use >= 3x for stable numbers.
BENCHTIME ?= 3x

.PHONY: all build test vet fmt-check lint sasvet fix race bench bench-smoke bench-json smoke-serve

all: build vet fmt-check test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# sasvet is the in-repo project-invariant analyzer suite (cmd/sasvet,
# internal/analysis): determinism (maporder), ownership handoff (handoff),
# crash durability (durable), and hot-path allocation (hotpath) contracts,
# plus rejection of every bare //sasvet:ok. It builds from vendor/ with no
# network, so it is a hard gate everywhere, including offline machines.
sasvet:
	$(GO) run ./cmd/sasvet ./...

# lint = sasvet (always) + staticcheck (when installed). staticcheck is not
# vendored; by default a missing binary skips with a note so offline
# machines can still run `make all`. CI sets LINT_STRICT=1, which turns a
# missing checker into a failure instead of a silent green.
lint: sasvet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ "$(LINT_STRICT)" = "1" ]; then \
		echo "lint: staticcheck not installed and LINT_STRICT=1; install it" \
			"(go install honnef.co/go/tools/cmd/staticcheck@2025.1)"; exit 1; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1)"; \
	fi

# fix applies the mechanical remedies: gofmt over the first-party tree and
# sasvet's suggested fixes (currently durable's missing-O_APPEND flag
# insertion), then prints whatever diagnostics still need a human. The
# trailing sasvet run is informational, so a non-empty remainder does not
# fail the target.
fix:
	gofmt -w $$(git ls-files -- '*.go' ':!vendor')
	-$(GO) run ./cmd/sasvet -fix ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run XXX -bench 'SerialSample$$|ParallelSample|BuilderPush' -benchmem .

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Time budget for the µs-scale query benchmark (iteration counts like 3x are
# far too noisy there; the build benchmarks use BENCHTIME iterations because
# one iteration is ~0.5s).
QUERYBENCHTIME ?= 1s

# Dataset scale and element budget for the recorded backends comparison;
# 0.05 keeps the four builds (notably the wavelet transform) to seconds.
BACKENDSCALE ?= 0.05
BACKENDSIZE ?= 1000

# Time budget for the ingest-plane benchmarks (each iteration streams 2^18
# keys through an HTTP server into the builders; 2s gives stable keys/s).
INGESTBENCHTIME ?= 2s

# Requests per (mix, concurrency) cell of the concurrent serving benchmark;
# an iteration count (not a duration) so every cell replays the same seeded
# sequence. CI uses 300x for a smoke-grade artifact.
LOADBENCHTIME ?= 3000x

# Record the benchmark trajectory: run the key build/query benchmarks, the
# ingest-plane benchmarks (HTTP frame and JSON bodies, plus
# BenchmarkIngestWAL, which prices each -wal-sync durability policy on the
# frame path against the no-WAL baseline),
# the concurrent serving benchmark (qps + latency percentiles per query
# mix, including the answer-cache hot/hot-nocache pair), and the
# head-to-head backend comparison (sasbench -backends), and emit
# BENCH_PR9.json (before = the previous PR's recorded numbers, after =
# this run, backends = the embedded comparison document).
bench-json:
	$(GO) run ./cmd/sasbench -backends /tmp/sas_backends.json \
		-scale $(BACKENDSCALE) -backend-size $(BACKENDSIZE)
	( $(GO) test -run '^$$' \
		-bench '^BenchmarkBuilderPush$$|^BenchmarkBuilderPushBatch$$|^BenchmarkBuilderSnapshot$$|^BenchmarkSerialSample$$|^BenchmarkParallelSample$$/workers=4' \
		-benchmem -benchtime $(BENCHTIME) . && \
	  $(GO) test -run '^$$' -bench '^BenchmarkIndexedEstimateRange$$' \
		-benchmem -benchtime $(QUERYBENCHTIME) . && \
	  $(GO) test -run '^$$' -bench '^BenchmarkIngest' \
		-benchmem -benchtime $(INGESTBENCHTIME) ./cmd/sasserve && \
	  $(GO) test -run '^$$' -bench '^BenchmarkServeLoad$$' \
		-benchtime $(LOADBENCHTIME) ./cmd/sasserve ) \
	| $(GO) run ./scripts/benchjson -pr 9 \
		-before BENCH_PR8.json -backends /tmp/sas_backends.json \
		-out BENCH_PR9.json
	@echo wrote BENCH_PR9.json

smoke-serve:
	./scripts/smoke_sasserve.sh
