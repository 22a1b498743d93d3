# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race test-race check bench bench-json bench-smoke experiments examples fuzz fuzz-short cover fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test -timeout=5m ./...

# The race detector slows the heavy GFP suites ~8x; internal/core alone
# runs close to 5 minutes, so the race leg gets double the plain timeout.
race:
	$(GO) test -race -timeout=10m ./...

test-race: race

# The full pre-merge gate: build, vet, tests, the race detector, and a
# short fuzzing pass over every parser.
check: build vet test test-race fuzz-short

# Regenerate the checked-in hot-path benchmark report.
bench-json:
	$(GO) run ./cmd/experiments -bench-json > BENCH_extract.json

bench:
	$(GO) test -bench . -benchmem ./...

# One iteration of each warm-extraction and mutate-burst benchmark under the
# race detector: keeps the incremental Stage 1–3 paths and the batching write
# pipeline exercised with concurrency checking on without paying for a full
# benchmark run. The WAL rides along so its group-commit ticker and append
# path stay race-clean.
bench-smoke:
	$(GO) test -race -run='^$$' -bench='^(BenchmarkWarmExtract|BenchmarkMutateBurst)' -benchtime=1x ./internal/experiments/
	$(GO) test -race ./internal/wal/

experiments:
	$(GO) run ./cmd/experiments -all

examples:
	@for d in examples/*/; do echo "=== $$d ==="; $(GO) run ./$$d || exit 1; done

# Fuzzing pass over every parser and spill-blob decoder, plus the
# differential fixpoint and greedy-engine fuzzers (longer runs: raise
# FUZZTIME).
FUZZTIME ?= 15s
fuzz:
	$(GO) test -fuzz='^FuzzParseOEM$$' -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -fuzz='^FuzzReadText$$' -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -fuzz='^FuzzFromJSON$$' -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -fuzz='^FuzzParseDelta$$' -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -fuzz='^FuzzCoalesce$$' -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/typing/
	$(GO) test -fuzz='^FuzzEvalGFP$$' -fuzztime $(FUZZTIME) ./internal/typing/
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/datalog/
	$(GO) test -fuzz='^FuzzParsePath$$' -fuzztime $(FUZZTIME) ./internal/query/
	$(GO) test -fuzz='^FuzzWALReplay$$' -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -fuzz='^FuzzDecodeShard$$' -fuzztime $(FUZZTIME) ./internal/compile/
	$(GO) test -fuzz='^FuzzLoadSnapshot$$' -fuzztime $(FUZZTIME) ./internal/compile/
	$(GO) test -fuzz='^FuzzGreedyMatchesBruteForce$$' -fuzztime $(FUZZTIME) ./internal/cluster/

# 30 seconds per fuzzer; part of `make check`.
fuzz-short:
	$(MAKE) fuzz FUZZTIME=30s

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

clean:
	rm -f cover.out test_output.txt bench_output.txt
