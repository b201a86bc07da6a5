# Developer entry points. `make check` is the full pre-commit gate:
# vet, build, the whole test suite under the race detector, and a short
# benchmark smoke run (catches benchmarks that no longer compile or
# assert stale path counts without waiting for steady-state timings).

GO ?= go

.PHONY: check vet lint build test race race-short bench bench-smoke fuzz-short \
	bench-regress bench-baseline bench-e2e routes-guard chaos-short cohort-short \
	perfbench-check

check: lint build perfbench-check routes-guard chaos-short cohort-short race-short race fuzz-short bench-smoke bench-regress

# API.md's endpoint table and the registered mux patterns must stay
# equal in both directions — a new route lands with its documentation
# or not at all.
routes-guard:
	$(GO) test -run 'TestRouteInventoryMatchesDocs' ./internal/server/

vet:
	$(GO) vet ./...

# Static analysis: vet and gofmt always (any file gofmt would rewrite
# fails the gate); staticcheck when installed (CI installs it — see
# .github/workflows/ci.yml; locally it is optional and skipped with a
# note rather than failing the build).
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt -l lists files that need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

# perfbench/ is its own module, so vet and test at the root skip it. Run
# both inside it: a façade or server change that breaks the end-to-end
# benchmark's build or its request-generator tests then fails the gate
# instead of surfacing only when the benchmark runs.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fast race gate over the request-lifecycle surface (engine cancellation
# + HTTP layer); the tight -timeout doubles as a hang detector for the
# parallel-drain and semaphore paths.
race-short:
	$(GO) test -race -timeout 90s ./internal/explore/... ./internal/server/...

# The resilience gate: the chaos fault-injection suite (reload-source,
# handler-entry and mid-stream faults), the overload/brownout/breaker
# behaviours and the shutdown-under-load drain, all under the race
# detector, then the streaming suites five times over: the stream
# writer's flush timer is a second goroutine touching the response.
# CI uploads the log on failure.
chaos-short:
	$(GO) test -race -timeout 120s ./internal/chaos/ ./internal/admission/
	$(GO) test -race -timeout 120s \
		-run 'Chaos|Queue|Shed|Brownout|Degraded|Breaker|Stale|Healthz|StatsOverload|OverloadMix|ShutdownUnderLoad' \
		./internal/server/
	$(GO) test -race -count 5 -run 'Stream|Flush|CohortMidStream|CohortFirstRecord|ChaosMidStream' ./internal/server/

# The batch-simulation gate: the scenario/cohort engine, the cohort
# endpoint's streaming, cancellation, coalescing and cohort-of-1
# equivalence tests, a cohort unit leading and following an HTTP request
# (LeaderFailure), and the CLI's cohort command held to the endpoint,
# under the race detector. CI uploads the log on failure.
cohort-short:
	$(GO) test -race -timeout 120s ./internal/cohort/
	$(GO) test -race -timeout 120s -run 'Cohort|WhatIf|LeaderFailure' ./internal/server/
	$(GO) test -race -timeout 120s -run Cohort ./cmd/coursenav/

# Bounded fuzz smoke over the ingestion parsers (grammar round-trip,
# prerequisite extraction, lenient/strict differential, the differential
# contracts holding the parsers' fast paths and byte scanners to their
# reference regexps and rune lexer, and the typed registrar import held
# to the text import), the result cache's request canonicalisation, the
# DAG's closed-form deadline-semester fold against enumeration, plus the
# response renderer against encoding/json (graph documents, bodies and
# NDJSON records, canonical request keys). go test allows
# one -fuzz target per invocation, hence one line per target. The
# minimize budget is capped in execs: the default (60s per interesting
# input) can stall a 5s smoke run for a minute on a fresh build cache.
fuzz-short:
	$(GO) test -run '^$$' -fuzz 'FuzzParse$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/expr/
	$(GO) test -run '^$$' -fuzz 'FuzzLexMatchesRuneLexer$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/expr/
	$(GO) test -run '^$$' -fuzz 'FuzzParsePrereq$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/registrar/
	$(GO) test -run '^$$' -fuzz 'FuzzParseCatalogDumpLenient$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/registrar/
	$(GO) test -run '^$$' -fuzz 'FuzzNormalizeCourseID$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/registrar/
	$(GO) test -run '^$$' -fuzz 'FuzzParsePrereqDifferential$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/registrar/
	$(GO) test -run '^$$' -fuzz 'FuzzScannersMatchRegexps$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/registrar/
	$(GO) test -run '^$$' -fuzz 'FuzzImportTypedMatchesText$$' -fuzztime 5s -fuzzminimizetime 100x .
	$(GO) test -run '^$$' -fuzz 'FuzzCanonicalRequest$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/server/
	$(GO) test -run '^$$' -fuzz 'FuzzTermParse$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/term/
	$(GO) test -run '^$$' -fuzz 'FuzzDeadlineFold$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/explore/
	$(GO) test -run '^$$' -fuzz 'FuzzAppendJSON$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/viz/
	$(GO) test -run '^$$' -fuzz 'FuzzRenderRecords$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/server/
	$(GO) test -run '^$$' -fuzz 'FuzzExploreKey$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/server/

# Full benchmark run with allocation stats (slow; EXPERIMENTS.md numbers).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# One quick iteration of the hot-path benchmarks.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Table1GoalPruning|Classify|Selections|RequirementRemaining' -benchtime 10x ./...

# Benchmark-regression gate: run the streaming/heap benchmarks and
# compare against the checked-in baseline (BENCH_baseline.json) with
# cmd/benchguard (allocs and B/op may grow ≤25%, ns ≤3x). When benchstat is
# installed (CI installs it), a human-readable delta is printed too.
# Keep the -bench pattern and -benchtime in sync with bench-baseline —
# allocs/op amortisation depends on the iteration count.
BENCH_GATE = GoalStream$$|GoalMaterialize$$|FrontierHeapGeneric$$|FrontierHeapBoxed$$|ExploreCold$$|ExploreWarm$$|ExploreCoalesced$$|CohortReplanCold$$|CohortReplanWarm$$|CohortSharedCold$$|CohortSharedWarm$$|DAGCount$$|DAGCountSmall$$|DAGWhatIf$$|MultiHorizonProbe$$|TranscriptGeneration$$|RegistrarLoad$$|RegistrarLoad2000$$|TermParse$$|CacheInvalidate$$|HotSetCount$$|HotSetTopK$$|RenderTable1$$
BENCH_DIR  = .bench
BENCH_RUN  = $(GO) test -run '^$$' -bench '$(BENCH_GATE)' -benchmem -benchtime 20x . ./internal/explore/ ./internal/server/ ./internal/term/ ./internal/resultcache/

bench-regress:
	@mkdir -p $(BENCH_DIR)
	$(BENCH_RUN) | tee $(BENCH_DIR)/current.txt | $(GO) run ./cmd/benchguard -baseline BENCH_baseline.json
	@if command -v benchstat >/dev/null 2>&1; then \
		$(GO) run ./cmd/benchguard -baseline BENCH_baseline.json -extract > $(BENCH_DIR)/baseline.txt; \
		benchstat $(BENCH_DIR)/baseline.txt $(BENCH_DIR)/current.txt; \
	else \
		echo "bench-regress: benchstat not installed, delta report skipped (gate enforced by benchguard)"; \
	fi

# Rewrite BENCH_baseline.json from a fresh run on this machine.
bench-baseline:
	$(BENCH_RUN) | $(GO) run ./cmd/benchguard -baseline BENCH_baseline.json -update

# End-to-end serving benchmark (perfbench/, declared in BENCHMARK.json):
# every workload once at one seed, 20 s each plus set-up. Slow and
# machine-dependent, so it stays outside `make check`.
bench-e2e:
	@for w in interactive cold_engine cohort mixed; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
	done
