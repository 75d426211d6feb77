# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Coverage gate: `make cover` fails below this floor. Raise it when coverage
# durably improves; don't lower it casually.
COVER_MIN ?= 85.0

.PHONY: all build test vet race fuzz bench bench-check experiments report \
	serve clean conformance cover chaos vulncheck load-smoke

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz passes over the fuzz targets (engine agreement,
# regex-vs-stdlib, end-to-end PAP equivalence, flow-vs-SFA mode
# equivalence, and scored-path-vs-oracle equivalence).
fuzz:
	$(GO) test -run xxx -fuzz FuzzEngineEquivalence -fuzztime 30s ./internal/engine/
	$(GO) test -run xxx -fuzz FuzzBaselineSkip -fuzztime 30s ./internal/engine/
	$(GO) test -run xxx -fuzz FuzzCompileAgainstStdlib -fuzztime 30s ./internal/regex/
	$(GO) test -run xxx -fuzz FuzzParallelEquivalence -fuzztime 30s ./internal/core/
	$(GO) test -run xxx -fuzz FuzzSFAEquivalence -fuzztime 30s ./internal/core/
	$(GO) test -run xxx -fuzz FuzzScoredEquivalence -fuzztime 30s ./internal/conformance/

# Differential conformance sweep against the reference oracle (see
# docs/TESTING.md); `go test ./internal/conformance` runs a smaller one.
conformance:
	$(GO) run ./cmd/papconform -cases 20000

# Chaos suite under the race detector: seeded fault injection (delays,
# failures, panics) across both schedulers plus the robustness regression
# tests (see docs/ROBUSTNESS.md). Full mode sweeps 500 seeded scenarios;
# CHAOS_SHORT=1 runs the short fault matrix for smoke use.
chaos:
	$(GO) test -race $(if $(CHAOS_SHORT),-short) -count=1 \
		-run 'TestChaos' ./internal/core/ \
		-v -timeout 10m
	$(GO) test -race -count=1 ./internal/faultinject/
	$(GO) test -race -count=1 \
		-run 'TestSessionExpiryRaces|TestMatchTimeout|TestMaxMatchDuration|TestStreamWriteTimeout' \
		./internal/server/

# Known-vulnerability scan; needs govulncheck (and network for the vuln DB).
# Skips with a notice when the tool is absent so offline builds stay green.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Coverage with a regression gate: fails if total statement coverage drops
# below COVER_MIN.
cover:
	$(GO) test -short -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{sub(/%/,"",$$3); print $$3}'); \
	awk -v t=$$total -v min=$(COVER_MIN) 'BEGIN { \
		if (t+0 < min+0) { printf "coverage %.1f%% is below the %.1f%% gate\n", t, min; exit 1 } \
		printf "coverage %.1f%% (gate %.1f%%)\n", t, min }'

bench:
	$(GO) test -bench=. -benchmem ./...

# bench/ (the repository benchmark, see bench/README.md) is a module of
# its own that `go build ./...` and `go test ./...` never compile, so an API
# change here can break it unseen: vet it and run its own tests.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench .

# Load smoke: papload drives a spawned 2-replica papd cluster (shard
# router + coalescing on) in mixed match/stream mode with hot reloads
# mid-run, and fails unless every request succeeded, no streaming session
# lost state, and the coalescer actually batched (see docs/SERVER.md).
load-smoke:
	$(GO) run ./cmd/papload -replicas 2 -mode mixed -duration 3s -conns 8 \
		-reloads 2 -require-zero-errors -require-coalescing

# Regenerate every table and figure at the default reduced scale.
experiments:
	$(GO) run ./cmd/papbench -experiment all

report:
	$(GO) run ./cmd/papbench -experiment all -report report.html

# Build and launch the matching daemon (see docs/SERVER.md).
serve:
	$(GO) build -o bin/papd ./cmd/papd
	./bin/papd

clean:
	rm -f report.html test_output.txt bench_output.txt cover.out
	rm -rf bin
