GO ?= go
GOFMT ?= gofmt

.PHONY: build lint test test-race vet fuzz-smoke bench bench-parallel bench-predict bench-campaign bench-serve bench-learn bench-amplify

build:
	$(GO) build ./...

# Formatting gate plus vet: fails listing any file gofmt would rewrite.
# Vet runs asmdecl over the amd64 assembly; the arm64 vet and build keep
# the portable file set (the scalar kernels without assembly) compiling.
# Then the import-boundary gate: the pipeline consumers (mlpct, campaign,
# razzer, snowboard) must execute through an explore.Executor — no direct
# internal/sim import and no direct ski.Execute* call — so fault injection
# and timing wrappers see every execution. The check reads direct imports
# only (transitively every package reaches sim via explore -> ski), and
# skips _test.go files, whose pinned pre-refactor loops call ski.Execute
# on purpose.
lint:
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...
	@bad=$$($(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' \
		./internal/mlpct ./internal/campaign ./internal/razzer ./internal/snowboard \
		| grep 'snowcat/internal/sim' || true); \
	if [ -n "$$bad" ]; then \
		echo "import-boundary violation: internal/sim imported directly (execute through explore.Executor):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -n 'ski\.Execute' \
		internal/mlpct/*.go internal/campaign/*.go internal/razzer/*.go internal/snowboard/*.go \
		| grep -v '_test\.go' || true); \
	if [ -n "$$bad" ]; then \
		echo "import-boundary violation: direct ski.Execute call (execute through explore.Executor):"; \
		echo "$$bad"; exit 1; \
	fi

# Default gate: lint, the full suite, and the equivalence tests again
# under the race detector, which runs the scalar kernels — the GCN pins
# against the edge-list reference, the inference fast-path set (base/context
# sharing across goroutines, and the Razzer/Snowboard pins scored through
# the serving client), the explore-pipeline pinned set (walks,
# campaign histories, Razzer/Snowboard rows at parallel worker counts),
# and the executor corpus run from several goroutines at once (pooled
# access logs).
test: lint
	$(GO) test ./...
	$(GO) test -race -run 'TestKernelsBitEqualReference|TestCSREquivalenceProperty|TestGCNBackwardMatchesReference|TestWithScheduleMatchesMonolithicBuild|TestBaseSharedAcrossGoroutines|TestBaseContextBitEqual|TestPredictAllCtxMatches|TestSweepPathsAgree|TestClientRazzerAndSnowboardPinned' \
		./internal/tensor ./internal/nn ./internal/ctgraph ./internal/pic .
	$(GO) test -race -run 'TestWalkInvariantToBatchAndWorkers|TestExecutePlanMatchesDirectExecution|TestPinnedPlansMatchPreRefactorLoops|TestPinnedHistoryMatchesPreRefactorRun|TestPinnedReproduceMatchesPreRefactorLoop|TestPinnedPICSampleMatchesPreRefactorLoop' \
		./internal/explore ./internal/mlpct ./internal/campaign ./internal/razzer ./internal/snowboard
	$(GO) test -race -run 'ZeroRate|Chaos|TestCampaignSurvivesFullFaultRate|TestReproduceSurvivesFullFaultRate|TestExploreRNilResilienceMatchesExplore|TestExploreRQuarantineGivesUp|TestExecutePlanQuarantine|TestWalkDegradesBuildPanic' \
		./internal/explore ./internal/campaign ./internal/razzer ./internal/snowboard
	$(GO) test -race ./internal/serve
	$(GO) test -race -run 'TestTokenCacheConcurrentReaders|TestBaseContextConcurrentPredict' ./internal/pic
	$(GO) test -race ./internal/stream ./internal/trainer
	$(GO) test -race -run 'TestExecCorpusConcurrent' ./internal/ski

test-race:
	$(GO) test -race ./...

# Runs each native fuzz target for ~10s with no new corpus persistence —
# the quick regression pass CI uses (a real fuzzing session just raises
# -fuzztime). One invocation per target: go test accepts a single -fuzz
# pattern and it must match exactly one target in the package. A dataset
# or model input carries about a kilobyte of gob type descriptors, and
# minimising it takes runs quadratic in its length, so FuzzDatasetDecode
# and FuzzModelDecode cap each new input's minimisation at 100 runs;
# uncapped it eats the whole 10s.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzScheduleKey$$' -fuzztime 10s ./internal/ski
	$(GO) test -run '^$$' -fuzz '^FuzzExecute$$' -fuzztime 10s ./internal/ski
	$(GO) test -run '^$$' -fuzz '^FuzzCTGraphBuild$$' -fuzztime 10s ./internal/ctgraph
	$(GO) test -run '^$$' -fuzz '^FuzzServeRequest$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzModelDecode$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/pic
	$(GO) test -run '^$$' -fuzz '^FuzzAmplifyNeighbors$$' -fuzztime 10s ./internal/amplify
	$(GO) test -run '^$$' -fuzz '^FuzzDatasetDecode$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/dataset

vet:
	$(GO) vet ./...

# Full paper-evaluation benchmark suite (heavyweight: trains models).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Parallel-layer benchmarks only (lightweight fixture).
bench-parallel:
	$(GO) test -run xxx -bench 'BenchmarkCampaign|BenchmarkPredictBatch|BenchmarkSweep' -benchtime 3x .

# Inference, training + executor hot-path benchmarks; snapshots the
# numbers to BENCH_predict.json. Covers single predicts, the direct and
# amortised (BaseContext) schedule sweeps, one interpreter execution, one
# GCN layer's forward and backward passes, the prediction head and one
# training epoch at the learn-retrain model's shape.
bench-predict:
	$(GO) test -run xxx -bench 'BenchmarkPredictOne$$|BenchmarkPredictOneBase$$|BenchmarkScheduleSweep$$|BenchmarkScheduleSweepBase$$|BenchmarkExecuteInterp$$' \
		-benchmem -benchtime 2s . | tee bench_predict.out
	$(GO) test -run xxx -bench 'BenchmarkGCN(Infer|Backward)/model$$|BenchmarkHead$$' \
		-benchmem -benchtime 2s ./internal/nn | tee -a bench_predict.out
	$(GO) test -run xxx -bench 'BenchmarkTrainEpoch$$' \
		-benchmem -benchtime 2s ./internal/pic | tee -a bench_predict.out
	awk 'BEGIN { print "[" } \
		/^Benchmark/ { name=$$1; sub(/-[0-9]+$$/, "", name); \
			printf "%s  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", sep, name, $$2, $$3, $$5, $$7; \
			sep=",\n" } \
		END { print "\n]" }' bench_predict.out > BENCH_predict.json
	rm -f bench_predict.out
	cat BENCH_predict.json

# Campaign-layer benchmarks (worker-pool campaigns plus the schedule-key
# and race-detector hot paths); snapshots the numbers to
# BENCH_campaign.json.
bench-campaign:
	$(GO) test -run xxx -bench 'BenchmarkCampaignSerial$$|BenchmarkCampaignParallel$$' \
		-benchmem -benchtime 3x . | tee bench_campaign.out
	$(GO) test -run xxx -bench 'BenchmarkScheduleKey' \
		-benchmem -benchtime 10000x ./internal/ski | tee -a bench_campaign.out
	$(GO) test -run xxx -bench 'BenchmarkDetect$$' \
		-benchmem -benchtime 10000x ./internal/race | tee -a bench_campaign.out
	awk 'BEGIN { print "[" } \
		/^Benchmark/ { name=$$1; sub(/-[0-9]+$$/, "", name); \
			printf "%s  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", sep, name, $$2, $$3, $$5, $$7; \
			sep=",\n" } \
		END { print "\n]" }' bench_campaign.out > BENCH_campaign.json
	rm -f bench_campaign.out
	cat BENCH_campaign.json

# Serving-layer benchmarks: open-loop (Poisson-arrival) HTTP latency over
# the batch-size x client-count grid, snapshotted to BENCH_serve.json.
# The workload per row is fixed by the offered rate, so -benchtime is 1x;
# b.ReportMetric adds throughput and client/server percentile columns and
# the fields are scanned pairwise instead of by position. No ratio is
# derived: every row offers the same request rate, so a graphs/s ratio
# reads the batch ratio by construction.
bench-serve:
	$(GO) test -run xxx -bench 'BenchmarkServeHTTP' -benchtime 1x ./internal/serve | tee bench_serve.out
	awk 'BEGIN { print "[" } \
		/^BenchmarkServeHTTP/ { name=$$1; sub(/-[0-9]+$$/, "", name); \
			printf "%s  {\"name\": \"%s\", \"iterations\": %s", sep, name, $$2; \
			for (i = 3; i < NF; i += 2) { \
				unit = $$(i+1); gsub(/[\/-]/, "_", unit); \
				printf ", \"%s\": %s", unit, $$i; \
			} \
			printf "}"; sep=",\n" } \
		END { print "\n]" }' bench_serve.out > BENCH_serve.json
	rm -f bench_serve.out
	cat BENCH_serve.json

# Closed-loop learning benchmark: the same budget-capped MLPCT campaign
# with the launch model frozen vs the online trainer retraining and
# hot-swapping mid-campaign, snapshotted to BENCH_learn.json. The
# headline column is execs_to_first_bug (dynamic executions spent before
# the first planted bug fires; lower is better); the final entry derives
# the closed-loop win as the frozen/retrained ratio (> 1 means the
# retrained predictor reached a planted bug earlier).
bench-learn:
	$(GO) test -run xxx -bench 'BenchmarkLearnLoop' -benchtime 1x . | tee bench_learn.out
	awk 'BEGIN { print "[" } \
		/^BenchmarkLearnLoop/ { name=$$1; sub(/-[0-9]+$$/, "", name); \
			printf "%s  {\"name\": \"%s\", \"iterations\": %s", sep, name, $$2; \
			for (i = 3; i < NF; i += 2) { \
				unit = $$(i+1); gsub(/[\/-]/, "_", unit); \
				printf ", \"%s\": %s", unit, $$i; \
				val[name "|" unit] = $$i; \
			} \
			printf "}"; sep=",\n" } \
		END { \
			fz = val["BenchmarkLearnLoop/frozen|execs_to_first_bug"]; \
			rt = val["BenchmarkLearnLoop/retrained|execs_to_first_bug"]; \
			if (fz > 0 && rt > 0) printf "%s  {\"name\": \"closed-loop-win\", \"frozen_over_retrained_execs_to_bug\": %.2f}", sep, fz / rt; \
			print "\n]" }' bench_learn.out > BENCH_learn.json
	rm -f bench_learn.out
	cat BENCH_learn.json

# Bug-amplification benchmarks: the per-family repro-rate table (witness
# baseline vs amplified rate; the bench itself fails if any family's lift
# drops below 2x) plus the guided-vs-exhaustive pruning comparison,
# snapshotted to BENCH_amplify.json. The final derived entry pins the
# PIC-guided claim: the guided climb executes strictly fewer dynamic
# trials than the exhaustive one on the same witness and seed.
bench-amplify:
	$(GO) test -run xxx -bench 'BenchmarkAmplifyFamily|BenchmarkAmplifyGuided' -benchtime 1x . | tee bench_amplify.out
	awk 'BEGIN { print "[" } \
		/^BenchmarkAmplify/ { name=$$1; sub(/-[0-9]+$$/, "", name); \
			printf "%s  {\"name\": \"%s\", \"iterations\": %s", sep, name, $$2; \
			for (i = 3; i < NF; i += 2) { \
				unit = $$(i+1); gsub(/[\/-]/, "_", unit); \
				printf ", \"%s\": %s", unit, $$i; \
				val[name "|" unit] = $$i; \
			} \
			printf "}"; sep=",\n" } \
		/^BenchmarkAmplifyGuided/ { w = val[name "|prune_win_x"]; \
			if (minw == 0 || w < minw) minw = w } \
		END { \
			if (minw > 0) printf "%s  {\"name\": \"guided-pruning-win\", \"min_exhaustive_over_guided_execs\": %.2f}", sep, minw; \
			print "\n]" }' bench_amplify.out > BENCH_amplify.json
	rm -f bench_amplify.out
	cat BENCH_amplify.json
