# Developer entry points. Stdlib-only Go; no external tools needed.

GO ?= go
FUZZTIME ?= 30s
# Minimum acceptable total statement coverage (see "coverage"). The
# repo sits at ~84.9%; the floor leaves headroom for flaky exclusions
# while still catching a PR that lands a large untested subsystem.
COVERAGE_BASELINE ?= 78.0

.PHONY: all build vet loc bench-build bench-pair bench-history bench-smoke test race bench fmt-check fuzz-smoke verify coverage

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Non-test Go lines per package and in total outside bench/: the number
# a simplicity PR reports before and after.
loc:
	@scripts/loc.sh

# bench/ is a module of its own, so "go build ./... && go test ./..."
# never compiles it: vet and test it here, or a signature change in a
# package it imports (internal/eval, the facade) breaks the benchmark
# unseen.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Ten alternating pairs of benchmark runs, BASE against the working
# tree, with each side's median, quartiles and win count per end-to-end
# metric: make bench-pair BASE=HEAD~1 WORKLOAD=tc-join
PAIRS ?= 10
SECONDS ?= 22
bench-pair:
	scripts/bench-pair.sh "$(BASE)" "$(WORKLOAD)" $(PAIRS) $(SECONDS)

# Every bench-pair run appends one line to BENCH_HISTORY.jsonl; this
# prints each timing as a chained index of paired head/base ratios, one
# row per PR along HEAD's lineage, and the latest allocation counts.
# Milliseconds from different sessions are never compared.
bench-history:
	@scripts/bench-history.sh

# Fail if any file needs gofmt; print the offenders.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Every benchmark of the root module once, so a benchmark body the docs
# quote figures from (BenchmarkParseProgram, BenchmarkOptimizeScaling,
# BenchmarkCapture, ...) cannot break unseen: no test runs them.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Run each native fuzz target briefly ("go test -fuzz" accepts one
# target per invocation). Override FUZZTIME for longer local hunts.
fuzz-smoke:
	$(GO) test ./internal/parser -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/parser -run='^$$' -fuzz='^FuzzParseFacts$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/while -run='^$$' -fuzz='^FuzzWhileParse$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/analyze -run='^$$' -fuzz='^FuzzAnalyze$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/store -run='^$$' -fuzz='^FuzzWALReplay$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/incr -run='^$$' -fuzz='^FuzzApply$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/eval -run='^$$' -fuzz='^FuzzMatcher$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz='^FuzzInflationaryDelta$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz='^FuzzNonInflationary$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/declarative -run='^$$' -fuzz='^FuzzWellFounded$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/tuple -run='^$$' -fuzz='^FuzzSortedTuples$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/tuple -run='^$$' -fuzz='^FuzzStorageModel$$' -fuzztime=$(FUZZTIME)
	$(GO) test . -run='^$$' -fuzz='^FuzzOptimize$$' -fuzztime=$(FUZZTIME)

# Total-coverage gate: fail if statement coverage across ./... drops
# below COVERAGE_BASELINE percent. Writes coverage.out for the CI
# artifact upload (go tool cover -html=coverage.out to browse).
coverage:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "coverage: total $$total% (floor $(COVERAGE_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVERAGE_BASELINE)" 'BEGIN { exit (t+0 >= b+0) ? 0 : 1 }' || \
		{ echo "coverage: $$total% is below the $(COVERAGE_BASELINE)% floor"; exit 1; }

# Tier-1 verification (see ROADMAP.md) plus the benchmark module's
# build. Every repository check is a Go test and has no target of its
# own: the custom analyzers (internal/lint), the stage-protocol and
# engine-dispatch guards and the fuzz-target lists (checks_test.go) run
# in "test" and "race".
verify: fmt-check build vet test race bench-build
