GO ?= go

.PHONY: all build test vet fmt-check lint sasvet fix race bench bench-smoke smoke-serve

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

smoke-serve:
	./scripts/smoke_sasserve.sh
