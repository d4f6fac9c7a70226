# Standard flows for the reco repository. Everything is plain `go` under
# the hood; these targets just name the common invocations.

GO ?= go

.PHONY: all build test test-short race cover bench bench-short bench-smoke verify results results-check examples fmt fmt-check vet lint check clean loadtest-short fuzz-short lines unreached

all: build test

# The full verification gate: everything CI should hold a change to.
check: build test race vet lint bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Per-package statement coverage, with a total line at the bottom.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1
	@rm -f coverage.out

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: a cheap smoke test that the bench
# harnesses still compile and run (used by CI; not for timing).
bench-short:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./...

# The repository benchmark's own smoke test (BENCHMARK.json contract, a tiny
# run of every workload). bench/ is a nested module, so `go test ./...` from
# the root never reaches it.
bench-smoke:
	cd bench && $(GO) test ./...

# Short closed-loop load test against an in-process recod (~2 s of driving
# per leg); recoload exits non-zero on any transport or server error.
# The second leg is a seeded overload run through the async job path — one
# worker, a two-deep queue, tight deadlines, weighted requests — proving
# admission control sheds and rejects structurally (429s, shed jobs) while
# the harness still exits 0: only transport errors fail a load run.
loadtest-short:
	$(GO) run ./cmd/recoload -inprocess -duration 2s -concurrency 4 \
		-n 8 -coflows 4 -reuse 0.9 -mix single=0.8,multi=0.2 > /dev/null
	$(GO) run ./cmd/recoload -inprocess -no-cache -duration 2s -concurrency 8 \
		-seed 7 -n 24 -mix job=1 -deadline 20ms -weighted \
		-job-workers 1 -job-queue 2 > /dev/null

# Ten seconds each of coverage-guided fuzzing over the schedule/job
# endpoints (malformed JSON, hostile SLA fields), over the fast request
# parser against its encoding/json reference (decoded request and carried
# matrix summary), over the bitset Hopcroft–Karp against the recursive
# adjacency-list one, over pairs of small requests whose plan-cache keys
# must be equal exactly when the requests are, over the response encoders
# against encoding/json, over the trace parser (and the count of what it
# writes back), over the electrical fluid allocator's invariants, and over
# small LPs whose sparse-pivot solve must match the dense reference pivot.
# CI-friendly: fails only on a crash, a broken response contract, a
# disagreement with a reference, a key collision or a broken invariant,
# never on timing.
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzScheduleRequest -fuzztime=10s ./internal/api
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSoundness -fuzztime=10s ./internal/api
	$(GO) test -run='^$$' -fuzz=FuzzGraphMatchesReference -fuzztime=10s ./internal/matching
	$(GO) test -run='^$$' -fuzz=FuzzFingerprintInjective -fuzztime=10s ./internal/plancache
	$(GO) test -run='^$$' -fuzz=FuzzEncoders -fuzztime=10s ./internal/api
	$(GO) test -run='^$$' -fuzz=FuzzParseTrace -fuzztime=10s ./internal/workload
	$(GO) test -run='^$$' -fuzz=FuzzElectricalDrain -fuzztime=10s ./internal/fabric
	$(GO) test -run='^$$' -fuzz=FuzzSimplexMatchesDense -fuzztime=10s ./internal/lp

# Re-check every qualitative claim of the paper against a fresh run (~30 s).
verify:
	$(GO) run ./cmd/recobench -verify

# The experiments with a committed CSV that `-exp all` leaves out (inAll =
# false in experiments.experimentList, minus the CSV-less ext-full).
OFF_ORDER = admission,kcore,frontier,hybrid

# Regenerate the committed experiment results (~100 s): the presentation
# order into all.txt, then the off-order tables as CSV only.
results:
	$(GO) run ./cmd/recobench -exp all -parallel 2 -outdir results > results/all.txt
	$(GO) run ./cmd/recobench -exp $(OFF_ORDER) -outdir results > /dev/null

# The deletion-safety invariant: regenerate as `results` does into a temp
# dir and fail on any byte of difference from the committed results/ (every
# CSV and all.txt, in both directions).
results-check:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/recobench -exp all -parallel 2 -outdir "$$tmp" > "$$tmp/all.txt" && \
	$(GO) run ./cmd/recobench -exp $(OFF_ORDER) -outdir "$$tmp" > /dev/null && \
	diff -rq -x README.md results "$$tmp" && echo "results-check: results/ reproduced byte for byte"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/singlecoflow
	$(GO) run ./examples/multicoflow
	$(GO) run ./examples/notallstop
	$(GO) run ./examples/onlinearrivals
	$(GO) run ./examples/scheduleservice

fmt:
	gofmt -w .

# Fail (listing the offenders) if any tracked Go file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck when installed; a visible skip (not a failure) when absent, so
# `make check` works on machines without it while CI with the tool installed
# still gates on its findings.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

clean:
	$(GO) clean ./...

# Non-test Go lines under cmd/ and internal/: the size a simplicity change
# reports before and after.
lines:
	@find cmd internal -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

# Functions and methods under internal/ that no program links in (no main
# package, not bench/): fails on one that tools/unreached/allow.txt does not
# name with a reason, and on an allow-list line that names nothing unreached.
unreached:
	$(GO) run ./tools/unreached
