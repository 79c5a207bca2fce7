# Developer entry points. `make check` is the tier-1 gate: build, vet,
# and the full test suite must pass before merging.

GO ?= go

.PHONY: build fmt test race vet reach bench bench-baseline bench-diff check e2ebench-check fuzz

# Per-target budget for `make fuzz` (the CI smoke job uses the default).
FUZZTIME ?= 30s

# Per-package test deadlines, far below go test's 10-minute default: the
# scrape layer's deadline/backoff/breaker tests finish in seconds, so a
# hung-target regression (a lost context deadline, an unbounded retry)
# fails the suite fast instead of stalling CI.
TESTTIMEOUT ?= 120s
RACETIMEOUT ?= 300s

build:
	$(GO) build ./...

# Fail when any Go file, the e2ebench module's included, is not gofmt'd.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test -timeout $(TESTTIMEOUT) ./...

# The parallel engine, fleet runner, searcher fan-out, and the scrape
# layer's fan-out/breaker paths are exercised under the race detector
# here; slow but mandatory for concurrency changes.
race:
	$(GO) test -race -timeout $(RACETIMEOUT) ./...

vet:
	$(GO) vet ./...

# The reachability guards alone: production code that no program reaches,
# and config fields that no program sets (reachability_test.go).
reach:
	$(GO) test -count=1 -run '^(TestProductionCodeIsReachable|TestConfigFieldsAreSet)$$' .

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# Regenerate the committed benchmark baseline. Review the diff before
# committing: ns/op moves with the host, allocs/op should not.
bench-baseline:
	$(GO) run ./cmd/bench -o BENCH_core.json -benchtime 1s

# Gate allocs/op against the committed baseline: any benchmark allocating
# more per op than BENCH_core.json records fails the target. ns/op is
# host-dependent and deliberately not gated, so a short benchtime suffices.
bench-diff:
	$(GO) run ./cmd/bench -diff BENCH_core.json -benchtime 100ms

# Fuzz the untrusted-input decoders (the tracefile reader, the WAL record
# decoder, and the scrape wire's exposition and JSON parsers, one-database
# and unit bodies), the KCD kernel on gap-bearing windows, the incident
# transition-sequence replayer, and the verdict JSON appender against
# encoding/json. Each target gets $(FUZZTIME).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzRead -fuzztime $(FUZZTIME) ./internal/tracefile
	$(GO) test -run '^$$' -fuzz FuzzDecodeRecord -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzKCD -fuzztime $(FUZZTIME) ./internal/correlate
	$(GO) test -run '^$$' -fuzz FuzzRestore -fuzztime $(FUZZTIME) ./internal/incident
	$(GO) test -run '^$$' -fuzz FuzzPromParse -fuzztime $(FUZZTIME) ./internal/scrape
	$(GO) test -run '^$$' -fuzz FuzzPayloadParse -fuzztime $(FUZZTIME) ./internal/scrape
	$(GO) test -run '^$$' -fuzz FuzzVerdictJSON -fuzztime $(FUZZTIME) ./internal/server

# The end-to-end benchmark harness is its own module (it replaces
# dbcatcher with ../), so `./...` above never compiles it. Vet and test it
# here so an API change it depends on fails the gate, not the benchmark.
e2ebench-check:
	cd e2ebench && $(GO) vet ./... && $(GO) test -timeout $(TESTTIMEOUT) ./...

check: fmt build vet test e2ebench-check
