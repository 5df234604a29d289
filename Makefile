GO ?= go
GOFMT ?= gofmt

.PHONY: check vet e2evet lint deadpkg fmtcheck build test race racesmoke fuzzsmoke bench benchsmoke benchdiff benchrecord cachesmoke shootoutsmoke servesmoke golden loc

## check: the pre-commit gate — gofmt, vet (root and e2ebench modules),
## the project's own static analysis (speclint), the unreachable-package
## check, build, the full test
## suite, the determinism tests under -race, a single-iteration pass over
## every benchmark (including the obs overhead guard), a warm-cache smoke
## run of the persistent store, a cross-selector shoot-out smoke, the
## daemon smoke (dedup, streaming, byte-identity, SIGTERM drain), and the
## performance-regression gate against the committed BENCH_*.json baseline
## (skipped on hosts without one).
check: fmtcheck vet e2evet lint deadpkg build test racesmoke benchsmoke cachesmoke shootoutsmoke servesmoke benchdiff

vet:
	$(GO) vet ./...

## e2evet: vet the nested e2ebench module, which the root `go vet ./...`
## stops short of at its module boundary.
e2evet:
	cd e2ebench && $(GO) vet ./...

## lint: the project-specific analyzers (see DESIGN.md §9, §14) —
## determinism, cancellation, cache-key and concurrency invariants the
## generic tools cannot see. -time prints the per-analyzer wall-time
## breakdown so a slow analyzer shows up in CI logs, not in folklore.
lint:
	$(GO) run ./cmd/speclint -time ./...

## deadpkg: fail, naming each package under internal/ that no command or
## example imports, directly or transitively. Such a package is code no
## binary can run; only its own tests keep it compiling.
deadpkg:
	@set -e; \
	used="$$($(GO) list -deps ./cmd/... ./examples/...)"; \
	all="$$($(GO) list ./internal/...)"; \
	dead=""; for p in $$all; do \
		echo "$$used" | grep -qxF "$$p" || dead="$$dead $$p"; \
	done; \
	[ -z "$$dead" ] || { echo "deadpkg: no command or example imports:$$dead"; exit 1; }; \
	echo "deadpkg: every internal package is reachable from cmd/ or examples/"

## fmtcheck: fail if any file needs gofmt (and list the offenders).
fmtcheck:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## racesmoke: the determinism and resume tests under the race detector —
## the exact tests whose guarantees the parallel kernels could quietly
## break. Far faster than `make race`; the full sweep remains available.
racesmoke:
	$(GO) test -race -run 'TestRunIdenticalAcrossWorkerCounts|TestRunIdenticalAcrossRepeats|TestBestKIdenticalAcrossWorkerCounts|TestBestKWeightedIdenticalAcrossWorkerCounts|TestBoundedMatchesPlain|TestBestKBoundedMatchesPlain|FuzzBoundedMatchesPlain' ./internal/kmeans
	$(GO) test -race -run 'TestFiguresIdenticalAcrossWorkerCounts|TestResumeAfterCancelledRun|TestCorruptCacheEntriesDegradeToRecompute|TestFig12NativeServedFromStore|TestLivePointsBitIdentical' ./internal/experiments
	$(GO) test -race -run 'TestWarmSelectionMatchesColdConcurrently' ./internal/core
	$(GO) test -race -run 'TestReplayerReusedMatchesFresh|TestReplaySuiteMatchesReplayAll|TestReplayAllParallelMatchesSequential' ./internal/pinball
	$(GO) test -race -run 'TestForEachSharded|TestGroupDoCancelledComputerDoesNotPoisonWaiters|TestQueue' ./internal/sched
	$(GO) test -race -run 'TestJSONLSinkConcurrentJobsDoNotTearLines|TestScopedSinksReceiveOnlyTheirJob|TestHistogramConcurrentObserve' ./internal/obs
	$(GO) test -race -run 'TestCollectorRunsProbes|TestExpositionParsesAndIsCoherent' ./internal/telemetry
	$(GO) test -race -run 'TestLoadSmoke|TestDedupIdenticalConfigs|TestAdmissionAndLoadShedding|TestTraceIDPropagation' ./internal/serve
	$(GO) test -race -run 'TestSelectorDeterminism|TestSelectorInvariants' ./internal/selector

## fuzzsmoke: each decoder fuzzer for 10 s on one worker — the store's
## slice, BBV, checkpoint run and live-point codecs and the daemon's submit
## decoder. Not part of check. A new input found from a whole-profile seed
## is minimised for at most 1 s, so the minimiser cannot take the run.
FUZZ = $(GO) test -run '^$$' -fuzztime 10s -fuzzminimizetime 1s -parallel 1 -fuzz
fuzzsmoke:
	$(FUZZ) '^FuzzSliceUnmarshal$$' ./internal/simpoint
	$(FUZZ) '^FuzzBBVUnmarshal$$' ./internal/simpoint
	$(FUZZ) '^FuzzCheckpointRunUnmarshal$$' ./internal/simpoint
	$(FUZZ) '^FuzzWarmStateUnmarshal$$' ./internal/core
	$(FUZZ) '^FuzzSubmitDecode$$' ./internal/serve

## golden: rewrite the pinned outputs: internal/experiments/testdata/
## report_small.golden.json, the -json report of `-run all -scale small`
## over the full suite (wall-clock fields blanked) that TestReportGolden
## compares against, and examples/testdata/*.golden, each example's stdout
## that TestExamplesGolden compares against. Run it only for a change meant
## to move them, on amd64.
golden:
	$(GO) test -count=1 -run '^TestReportGolden$$' ./internal/experiments -update
	$(GO) test -count=1 -run '^TestExamplesGolden$$' . -update

## loc: the Go line counts CHANGES.md records as each change's net line
## delta: product is every non-test .go file outside e2ebench/ and
## testdata/, tests are the _test.go files under the same rule. Not part of
## check.
loc:
	@files="$$(find . -name '*.go' -not -path './e2ebench/*' -not -path '*/testdata/*')"; \
	echo "product Go: $$(echo "$$files" | grep -v '_test\.go$$' | xargs cat | wc -l)"; \
	echo "test Go:    $$(echo "$$files" | grep '_test\.go$$' | xargs cat | wc -l)"

## bench: one testing.B benchmark per paper table/figure, single iteration.
bench:
	$(GO) test -bench=. -benchtime=1x .

## benchsmoke: compile-and-run every benchmark once (no timing fidelity) —
## catches bit-rotted benchmarks and asserts BenchmarkObsOverhead's
## disabled path still runs. The benchmark sets live in internal/perf
## (perf.Targets); cmd/specbench is the single driver.
benchsmoke:
	$(GO) run ./cmd/specbench smoke

## benchdiff: the performance-regression gate (DESIGN.md §10) — re-run the
## recorded benchmark sets and compare against the committed
## BENCH_<host-class>.json with noise-tolerant thresholds. Fails on
## regression; passes trivially on hosts with no committed baseline.
benchdiff:
	$(GO) run ./cmd/specbench diff -skip-missing

## benchrecord: refresh this host class's BENCH_*.json baseline. Run on an
## otherwise idle machine and commit the result together with the change
## that justified it.
benchrecord:
	$(GO) run ./cmd/specbench record

## shootoutsmoke: the cross-selector harness end to end — one benchmark at
## small scale, two repeated subsamples; every registered backend must show
## up in the report with its confidence-interval columns.
shootoutsmoke:
	@out="$$($(GO) run ./cmd/experiments -run shootout -scale small \
		-bench 505.mcf_r -repeats 2)"; set -e; \
	for s in simpoint stratified rankedset; do \
		echo "$$out" | grep -q "$$s" || { \
			echo "shootoutsmoke: backend $$s missing from report"; \
			echo "$$out"; exit 1; }; \
	done; \
	echo "$$out" | grep -q '±' || { \
		echo "shootoutsmoke: no confidence intervals in report"; \
		echo "$$out"; exit 1; }; \
	echo "shootoutsmoke: all backends reported with CIs"

## servesmoke: the daemon end to end — start specsimd on an ephemeral port,
## submit two identical jobs plus one distinct job, and assert: the
## duplicate deduplicates to the first job (no third job appears, the
## serve.dedup counter fires), the events feed streams parseable JSONL
## progress, the result bytes are identical to `cmd/experiments -json` for
## the same configuration computed in a separate cache, the /metrics
## exposition shows the per-route request counters and serve_submit
## advancing across the run (with latency buckets present), and SIGTERM
## drains the daemon cleanly (exit 0).
servesmoke:
	@dir="$$(mktemp -d)"; set -e; \
	trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/specsimd" ./cmd/specsimd; \
	"$$dir/specsimd" -addr 127.0.0.1:0 -cache-dir "$$dir/cache" -metrics \
		2>"$$dir/daemon.log" & pid=$$!; \
	addr=""; for i in $$(seq 1 100); do \
		addr="$$(sed -n 's/^specsimd: listening on \([0-9.:]*\).*/\1/p' "$$dir/daemon.log")"; \
		[ -n "$$addr" ] && break; sleep 0.1; done; \
	[ -n "$$addr" ] || { echo "servesmoke: daemon did not start"; cat "$$dir/daemon.log"; kill $$pid; exit 1; }; \
	curl -fsS "$$addr/metrics" >"$$dir/metrics0.txt"; \
	body='{"run":"tableII","scale":"small","benchmarks":["505.mcf_r","541.leela_r"]}'; \
	curl -fsS -d "$$body" "$$addr/v1/jobs" >"$$dir/sub1.json"; \
	curl -fsS -d "$$body" "$$addr/v1/jobs" >"$$dir/sub2.json"; \
	curl -fsS -d '{"run":"tableIII","scale":"small"}' "$$addr/v1/jobs" >"$$dir/sub3.json"; \
	id1="$$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$$dir/sub1.json")"; \
	id2="$$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$$dir/sub2.json")"; \
	[ "$$id1" = "$$id2" ] || { echo "servesmoke: identical submissions got distinct jobs ($$id1 vs $$id2)"; exit 1; }; \
	grep -q '"dedup": true' "$$dir/sub2.json" || { echo "servesmoke: duplicate not marked dedup"; cat "$$dir/sub2.json"; exit 1; }; \
	curl -fsS "$$addr/v1/jobs/$$id1/events" >"$$dir/events.jsonl"; \
	grep -q '"stage":"analyze"' "$$dir/events.jsonl" || { echo "servesmoke: no analyze progress in events"; cat "$$dir/events.jsonl"; exit 1; }; \
	curl -fsS "$$addr/v1/jobs" >"$$dir/jobs.json"; \
	n="$$(grep -c '"id": ' "$$dir/jobs.json")"; \
	[ "$$n" = "2" ] || { echo "servesmoke: expected 2 jobs after dedup, saw $$n"; exit 1; }; \
	for i in $$(seq 1 300); do \
		curl -fsS "$$addr/v1/jobs/$$id1" | grep -q '"state": "done"' && break; sleep 0.1; done; \
	curl -fsS "$$addr/v1/jobs/$$id1/result" >"$$dir/daemon.json"; \
	$(GO) run ./cmd/experiments -run tableII -scale small \
		-bench 505.mcf_r,541.leela_r -cache-dir "$$dir/cache2" \
		-json "$$dir/cli.json" >/dev/null; \
	cmp "$$dir/daemon.json" "$$dir/cli.json" || { echo "servesmoke: daemon result differs from cmd/experiments"; exit 1; }; \
	curl -fsS "$$addr/metrics" >"$$dir/metrics1.txt"; \
	series='serve_http_requests{route="/v1/jobs",method="POST",code="2xx"}'; \
	r0="$$(grep -F "$$series " "$$dir/metrics0.txt" | awk '{print $$2}')"; \
	r1="$$(grep -F "$$series " "$$dir/metrics1.txt" | awk '{print $$2}')"; \
	[ "$${r1:-0}" -gt "$${r0:-0}" ] || { echo "servesmoke: $$series did not advance ($$r0 -> $$r1)"; exit 1; }; \
	s0="$$(grep '^serve_submit ' "$$dir/metrics0.txt" | awk '{print $$2}')"; \
	s1="$$(grep '^serve_submit ' "$$dir/metrics1.txt" | awk '{print $$2}')"; \
	[ "$${s1:-0}" -gt "$${s0:-0}" ] || { echo "servesmoke: serve_submit did not advance ($$s0 -> $$s1)"; exit 1; }; \
	grep -F 'serve_http_request_seconds_bucket' "$$dir/metrics1.txt" | grep -qF 'le="+Inf"' \
		|| { echo "servesmoke: no +Inf latency bucket in exposition"; exit 1; }; \
	kill -TERM $$pid; wait $$pid || { echo "servesmoke: daemon exited non-zero after SIGTERM"; cat "$$dir/daemon.log"; exit 1; }; \
	grep -q 'drained; bye' "$$dir/daemon.log" || { echo "servesmoke: no clean drain"; cat "$$dir/daemon.log"; exit 1; }; \
	grep -A4 '"serve.dedup"' "$$dir/daemon.log" | grep -q '"value"' || { echo "servesmoke: serve.dedup counter never fired"; exit 1; }; \
	echo "servesmoke: dedup, streaming, byte-identity, metrics scrape and drain all verified"

## cachesmoke: the persistent artifact store end to end — run tableII and
## then fig12 twice each into one fresh cache dir; each second run must be
## served from the store (store.hit > 0 in the metrics dump) and print
## byte-identical results (the wall-clock "completed in" line excluded).
## fig12's native reference is a stored artifact, so its cold run traces
## a "native" span and its warm run none. Neither warm run selects, so each
## reads the profile checkpoints and no basic-block vectors: its trace has
## a store.get of kind profile and none of kind bbv. fig12 warms its
## regions up, so its cold run puts their live-points (kind warm) and its
## warm run restores them from a store.get hit of that kind. Last, a cold
## fig7 and then fig8 into a second cache dir: fig7 puts the one Whole run
## artifact (kind whole, mix, cache and CPI from one pass), and fig8 takes
## its cache profile from a store.get hit of that kind and traces no
## "whole" span.
cachesmoke:
	@dir="$$(mktemp -d)"; set -e; \
	trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/experiments" ./cmd/experiments; \
	for run in tableII fig12; do \
		for pass in cold warm; do \
			"$$dir/experiments" -run $$run -scale small \
				-bench 505.mcf_r,503.bwaves_r -cache-dir "$$dir/cache" -metrics \
				-trace "$$dir/$$run.$$pass.trace" \
				>"$$dir/$$run.$$pass.txt" 2>"$$dir/$$run.$$pass.metrics"; \
			grep -v '^completed in' "$$dir/$$run.$$pass.txt" >"$$dir/$$run.$$pass.cmp"; \
		done; \
		cmp "$$dir/$$run.cold.cmp" "$$dir/$$run.warm.cmp"; \
		grep -A4 '"store.hit"' "$$dir/$$run.warm.metrics" | grep -q '"value"'; \
		grep '"name":"store.get"' "$$dir/$$run.warm.trace" | grep -q '"kind":"profile"' \
			|| { echo "cachesmoke: warm $$run read no profile"; exit 1; }; \
		! grep '"name":"store.get"' "$$dir/$$run.warm.trace" | grep -q '"kind":"bbv"' \
			|| { echo "cachesmoke: warm $$run read basic-block vectors"; exit 1; }; \
	done; \
	grep -q '"name":"native"' "$$dir/fig12.cold.trace" \
		|| { echo "cachesmoke: cold fig12 ran no native pass"; exit 1; }; \
	! grep -q '"name":"native"' "$$dir/fig12.warm.trace" \
		|| { echo "cachesmoke: warm fig12 re-ran the native pass"; exit 1; }; \
	grep '"name":"store.put"' "$$dir/fig12.cold.trace" | grep -q '"kind":"warm"' \
		|| { echo "cachesmoke: cold fig12 stored no live-points"; exit 1; }; \
	grep '"name":"store.get"' "$$dir/fig12.warm.trace" | grep '"kind":"warm"' | grep -q '"outcome":"hit"' \
		|| { echo "cachesmoke: warm fig12 restored no live-points"; exit 1; }; \
	for run in fig7 fig8; do \
		"$$dir/experiments" -run $$run -scale small \
			-bench 505.mcf_r,503.bwaves_r -cache-dir "$$dir/wcache" \
			-trace "$$dir/$$run.whole.trace" >/dev/null; \
	done; \
	grep '"name":"store.put"' "$$dir/fig7.whole.trace" | grep -q '"kind":"whole"' \
		|| { echo "cachesmoke: cold fig7 stored no whole run"; exit 1; }; \
	grep '"name":"store.get"' "$$dir/fig8.whole.trace" | grep '"kind":"whole"' | grep -q '"outcome":"hit"' \
		|| { echo "cachesmoke: fig8 did not reuse fig7's whole run"; exit 1; }; \
	! grep -q '"name":"whole"' "$$dir/fig8.whole.trace" \
		|| { echo "cachesmoke: fig8 re-ran the whole program"; exit 1; }; \
	echo "cachesmoke: warm tableII and fig12 byte-identical, served from the store without vectors, fig12 from live-points, fig8 from fig7's whole run"
