GO ?= go

.PHONY: build test vet race bench bench-inc bench-batch bench-hier bench-obsv bench-service bench-session test-batch loc test-engine test-obsv test-service test-session smoke-service check trace baseline faults fuzz-kernels fuzz-netlist

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Monte Carlo and the service are concurrency-bearing; every change
# must stay clean under the race detector.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

# bench-inc measures the persistent SSTA engine's dirty-cone step
# against a fresh full sweep (single-gate gradient steps in internal/ssta),
# the two ways to move the engine by a whole size vector (per-gate
# SetSize plus a dirty-cone Update against one SetSizes, on the reduced
# solver's line-search traffic), plus a fixed 64-step greedy run on the
# persistent engine (internal/sizing), and collects ns/op, allocs/op
# and — for the engine steps — the nodes re-evaluated per step
# (nodes/op, counted from the engine's inc.update and hier.sweep
# events over a fixed 100-step replay, so the figure does not move with
# b.N) into BENCH_incremental.json. Benchmark columns are
# read by their unit, since a custom metric shifts the memory columns.
bench-inc:
	$(GO) test -run NONE -bench 'Inc|FullSweep' -benchmem -count 1 \
		./internal/ssta/ ./internal/sizing/ | tee /tmp/bench-inc.txt
	awk 'BEGIN { print "["; n = 0 } \
		/^Benchmark(Inc|FullSweep|Greedy)/ { \
			name = $$1; sub(/-[0-9]+$$/, "", name); by = al = nodes = ""; \
			for (i = 4; i <= NF; i++) { \
				if ($$i == "B/op") by = $$(i-1); \
				if ($$i == "allocs/op") al = $$(i-1); \
				if ($$i == "nodes/op") nodes = $$(i-1) } \
			if (n++) printf ",\n"; \
			printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
				name, $$3, by, al; \
			if (nodes != "") printf ", \"reeval_nodes_per_op\": %s", nodes; \
			printf "}" } \
		END { print "\n]" }' /tmp/bench-inc.txt > BENCH_incremental.json
	cat BENCH_incremental.json

# bench-batch measures the K-lane structure-of-arrays sweeps against
# K independent scalar traversals on the 1200-gate netlist — the
# deterministic corner k-sweep (DetBatch) and the batched Monte Carlo
# shard runner — and collects ns/op, allocs/op and the derived K=8
# speedups into BENCH_batch.json. The corner pair must show the
# batched path at least 4x faster at K=8.
bench-batch:
	$(GO) test -run NONE -bench 'Corner(Scalar|Batch)' \
		-benchmem -count 1 ./internal/ssta/ | tee /tmp/bench-batch.txt
	$(GO) test -run NONE -bench 'MCLanes' -benchmem -count 1 \
		./internal/montecarlo/ | tee -a /tmp/bench-batch.txt
	awk 'BEGIN { print "["; n = 0 } \
		/^Benchmark(Corner|MCLanes)/ { \
			name = $$1; sub(/-[0-9]+$$/, "", name); ns[name] = $$3; \
			if (n++) printf ",\n"; \
			printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
				name, $$3, $$5, $$7 } \
		END { \
			if (ns["BenchmarkCornerBatchK8Gen1200"]) \
				printf ",\n  {\"name\": \"CornerK8Speedup\", \"speedup\": %.2f}", \
					ns["BenchmarkCornerScalarX8Gen1200"] / ns["BenchmarkCornerBatchK8Gen1200"]; \
			if (ns["BenchmarkMCLanes8Gen1200"]) \
				printf ",\n  {\"name\": \"MCLanes8Speedup\", \"speedup\": %.2f}", \
					ns["BenchmarkMCLanes1Gen1200"] / ns["BenchmarkMCLanes8Gen1200"]; \
			print "\n]" }' /tmp/bench-batch.txt > BENCH_batch.json
	cat BENCH_batch.json

# bench-hier measures the persistent SSTA engine against the flat
# sweeps on the streamed 100k-gate netlist (the cmd/circuitgen
# gen100k preset): one full forward+adjoint evaluation each, and the
# warm single-gate sizing step where the engine re-evaluates only the
# dirty cone. Both paths are serial; the W1 suffixes are kept from the
# former worker-count series so the ledger rows stay comparable. The
# engine's adjoint pass alone (HierAdjoint: sweep order, as the greedy
# sizer reads it; HierBackward: with the NodeID translation) and one
# warm greedy sizing step (GreedyStep, internal/sizing) are ledgered
# next to them, as is the reduced solver's step on k2-like
# (HierResweepK2: a warm whole-vector SetSizes alternating between two
# points, one full forward pass over the engine's lane program, with
# the Clark maxes it runs in lockstep as paired-maxes/op).
# HierFullSpeedup sets the engine's full evaluation against the flat
# one. The suite runs in 3 rounds, each one `go test -count 1`
# process, so a round's flat and engine benchmarks run back to back.
# The ns/op, B/op and allocs/op rows keep the minimum ns/op of the 3
# rounds (the same min-of-N noise suppression as
# internal/bench.timeBest); each derived speedup is the median of the
# 3 per-round flat/engine ratios (listed as "rounds"), so host drift
# between rounds cancels out of it. The raw output stays in
# .bench_build/bench-hier.txt; the results land in BENCH_hier.json,
# with the warm step's nodes re-evaluated per step (nodes/op, a fixed
# 100-step replay) and HierResweepK2's paired-maxes/op (columns are
# read by their unit). The target fails
# when a round fails (pipefail keeps go test's exit status through
# tee), when the median HierStepSpeedup is below 3 (the warm step must
# be at least 3x faster than the flat full resweep) or when a warm
# engine row (BenchmarkHier*, BenchmarkGreedy*) reports allocs/op
# above 0; the ledger is still written and printed first.
bench-hier: SHELL := /bin/bash
bench-hier:
	mkdir -p .bench_build && rm -f .bench_build/bench-hier.txt
	set -o pipefail; for r in 1 2 3; do \
		echo "round $$r" >> .bench_build/bench-hier.txt; \
		$(GO) test -run NONE -bench 'Gen100k|HierResweepK2' -benchmem -count 1 -timeout 30m \
			./internal/ssta/ ./internal/sizing/ | tee -a .bench_build/bench-hier.txt || exit 1; \
	done
	awk 'function emit(name) { \
			printf "%s  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
				(m++ ? ",\n" : ""), name, ns[name], by[name], al[name]; \
			if (nodes[name] != "") printf ", \"reeval_nodes_per_op\": %s", nodes[name]; \
			if (pairs[name] != "") printf ", \"paired_maxes_per_op\": %s", pairs[name]; \
			printf "}" } \
		function speedup(label, flat, eng,    k, i, j, t, q, list, med) { \
			k = 0; list = ""; \
			for (i = 1; i <= r; i++) \
				if (rns[i, flat] && rns[i, eng]) { \
					q[++k] = rns[i, flat] / rns[i, eng]; \
					list = list (k > 1 ? ", " : "") sprintf("%.2f", q[k]) } \
			if (k == 0) return; \
			for (i = 2; i <= k; i++) \
				for (j = i; j > 1 && q[j-1] > q[j]; j--) { t = q[j]; q[j] = q[j-1]; q[j-1] = t } \
			med = (q[int((k+1)/2)] + q[int(k/2)+1]) / 2; \
			printf ",\n  {\"name\": \"%s\", \"speedup\": %.2f, \"rounds\": [%s]}", \
				label, med, list; \
			return med } \
		BEGIN { print "["; n = 0; m = 0; r = 0; bad = "" } \
		/^round / { r = $$2 } \
		/^Benchmark(((Flat|Hier)(Grad|Step)|Hier(Adjoint|Backward)|GreedyStep)Gen100k|HierResweepK2)/ { \
			name = $$1; sub(/-[0-9]+$$/, "", name); \
			rns[r, name] = $$3; \
			for (i = 4; i <= NF; i++) \
				if ($$i == "allocs/op" && name ~ /^Benchmark(Hier|Greedy)/ && $$(i-1) + 0 > 0) \
					bad = bad sprintf("bench-hier: round %d %s reports %s allocs/op, want 0\n", r, name, $$(i-1)); \
			if (!(name in ns)) order[n++] = name; \
			else if ($$3 + 0 >= ns[name] + 0) next; \
			ns[name] = $$3; \
			for (i = 4; i <= NF; i++) { \
				if ($$i == "B/op") by[name] = $$(i-1); \
				if ($$i == "allocs/op") al[name] = $$(i-1); \
				if ($$i == "nodes/op") nodes[name] = $$(i-1); \
				if ($$i == "paired-maxes/op") pairs[name] = $$(i-1) } } \
		END { \
			for (i = 0; i < n; i++) emit(order[i]); \
			speedup("HierFullSpeedup", "BenchmarkFlatGradGen100kW1", "BenchmarkHierGradGen100kW1"); \
			step = speedup("HierStepSpeedup", "BenchmarkFlatStepGen100k", "BenchmarkHierStepGen100k"); \
			print "\n]"; \
			if (step == "" || step < 3) \
				bad = bad sprintf("bench-hier: median HierStepSpeedup %s, want at least 3\n", step == "" ? "missing" : sprintf("%.2f", step)); \
			printf "%s", bad > "/dev/stderr"; \
			exit (bad != "") }' .bench_build/bench-hier.txt > BENCH_hier.json; \
		status=$$?; cat BENCH_hier.json; exit $$status

# bench-obsv measures the observability subsystem's overhead: identical
# fixed-work solves on the 1200-gate netlist with telemetry disabled
# (nil Recorder) and with the full production chain attached (watchdog
# -> metrics with span histograms and scope-stack span trees). The
# Off/On singles run once for the exact B/op and allocs/op rows; the
# overhead percentages come from the *Pair benchmarks, which interleave
# the two variants inside each iteration so shared-host frequency
# drift — far larger than the overhead itself in consecutive-block
# comparisons — cancels, and the median of 5 paired runs lands in
# BENCH_obsv.json with a target under 2%.
bench-obsv:
	$(GO) test -run NONE -bench 'Obsv(Greedy|NLP)(Off|On)$$' -benchmem \
		-count 1 -benchtime 100x -timeout 30m ./internal/sizing/ \
		| tee /tmp/bench-obsv.txt
	$(GO) test -run NONE -bench 'Obsv(Greedy|NLP)Pair' -count 5 -benchtime 50x \
		-timeout 30m ./internal/sizing/ | tee -a /tmp/bench-obsv.txt
	awk 'function median(name,   n, i, j, t, a) { \
			n = cnt[name]; \
			for (i = 0; i < n; i++) a[i] = ovh[name, i] + 0; \
			for (i = 1; i < n; i++) \
				for (j = i; j > 0 && a[j] < a[j-1]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t } \
			return a[int(n / 2)] } \
		BEGIN { print "["; n = 0 } \
		/^BenchmarkObsv(Greedy|NLP)Pair/ { \
			name = $$1; sub(/-[0-9]+$$/, "", name); \
			for (i = 2; i <= NF; i++) if ($$i == "overhead-%") ovh[name, cnt[name]++] = $$(i-1); \
			next } \
		/^BenchmarkObsv/ { \
			name = $$1; sub(/-[0-9]+$$/, "", name); \
			if (n++) printf ",\n"; \
			printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
				name, $$3, $$5, $$7 } \
		END { \
			if (cnt["BenchmarkObsvGreedyPair"]) \
				printf ",\n  {\"name\": \"GreedyObsvOverheadPct\", \"overhead_pct\": %.2f}", \
					median("BenchmarkObsvGreedyPair"); \
			if (cnt["BenchmarkObsvNLPPair"]) \
				printf ",\n  {\"name\": \"NLPObsvOverheadPct\", \"overhead_pct\": %.2f}", \
					median("BenchmarkObsvNLPPair"); \
			print "\n]" }' /tmp/bench-obsv.txt > BENCH_obsv.json
	cat BENCH_obsv.json

# test-obsv runs the observability suite under the race detector (the
# CI obsv job): histogram bucketing and quantiles, span-tree self/cum
# attribution and allocation pins, the Prometheus exposition golden
# file and scrape server, the watchdog stall detection (including the
# fault-injected non-converging solve), the trace-into-missing-
# directory behavior of both CLIs, and the byte-identity of traces
# under the full observability chain.
test-obsv:
	$(GO) test -race -timeout 10m \
		-run 'Hist|Stack|Tree|AddAt|Prom|Serve|SampleRuntime|Watchdog|TraceFlag|ObservabilityChain|Trace' \
		./internal/telemetry/ ./internal/sizing/ ./internal/faults/ \
		./cmd/statsize/ ./cmd/ssta/

# test-engine runs the persistent SSTA engine suite under the race
# detector (the CI engine job): the trial/rollback fuzz against fresh
# sweeps, the whole-vector SetSizes fuzz and misuse panics,
# bit-identity with the flat sweeps, criticality, the event and trace
# byte-identity checks, the 0-alloc pins, the greedy driver on the
# engine, the reduced NLP elements on the engine (point-walk fuzz
# against fresh sweeps, non-finite points, the 0-alloc pin and the
# sweep counters), the compiled sweep schedule's invariants, the
# sizing drivers' rejection of bad inputs, the streamed generator
# round-trip, and the top-k criticality ranking against a full sort.
test-engine:
	$(GO) test -race -timeout 10m \
		-run 'TestInc|TestGreedyFromSpec|TestGreedyWeighted|Hier|GenerateStream|GenPreset|TestReduced|Schedule|TestGreedyRejects|TestSizeRejects|TopCritical' \
		./internal/ssta/ ./internal/sizing/ ./internal/netlist/

# test-batch runs the batch equivalence suite — bit-identity of the
# K-lane deterministic corner (DetBatch, KSweep, Corners) and Monte
# Carlo sweeps against independent scalar runs and the risk-factor
# guards — under the race detector (the CI batch job).
test-batch:
	$(GO) test -race -timeout 5m \
		-run 'Batch|KSweep|Corners|NonFinite|LaneWidth' \
		./internal/ssta/ ./internal/montecarlo/

# loc prints the root module's non-test and test Go line counts,
# leaving out the benchmark module and its build directory.
loc:
	@printf 'non-test %s\n' "$$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l)"
	@printf 'test     %s\n' "$$(find . -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l)"

# test-service runs the sizing-as-a-service suite under the race
# detector (the CI service job): admission control (429/503/409/413),
# the journal's torn-tail replay, checkpoint durability (.bak
# fallback), the supervision state machine (retry with ladder
# step-down, watchdog, per-job deadlines, cancellation), the chaos
# acceptance tests — kill mid-solve with bit-identical recovery, drain
# with zero accepted-job loss, restart over a torn journal — the
# what-if session suite (test-session is its subset) and the loopback
# harness behind smoke-service and bench-service.
test-service:
	$(GO) test -race -timeout 10m ./internal/service/ ./cmd/sizingd/ \
		./internal/checkpoint/

# test-session runs the warm what-if session tests under the race
# detector, a subset of test-service for iterating on sessions: the
# full HTTP lifecycle, admission mapping, the PATCH size policy, LRU
# evict + rebuild bit-identity against a never-evicted control,
# concurrent PATCH linearization, what-if state purity, idle reaping,
# roster recovery across a hard restart, and the SSE/strict-body
# regression tests that ride along.
test-session:
	$(GO) test -race -timeout 10m \
		-run 'Session|EventHub|TrailingGarbage|ReplayDisconnect' \
		./internal/service/

# smoke-service boots the daemon, pushes one job through the HTTP API
# end to end and drains (the CI liveness check for cmd/sizingd). It
# fails unless the job ends done.
smoke-service:
	$(GO) run ./cmd/sizingd -smoke

# bench-service runs the chaos load harness — 4 concurrent clients
# submitting 16 real solves over HTTP while the daemon is hard-killed
# and restarted 3 times mid-run — and records throughput,
# submit→result latency quantiles and the supervision counters into
# BENCH_service.json. It fails when a job ends failed or cancelled or
# never ends, when the accepted or completed counters summed over the
# daemon's incarnations differ from 16, or when the restarts differ
# from the kills; the report is still written.
bench-service:
	$(GO) run ./cmd/sizingd -loadtest -out BENCH_service.json
	cat BENCH_service.json

# bench-session measures the same single-gate timing query served from
# a warm what-if session (PATCH against the resident incremental
# engine), a cold per-query session (create + nudge + close) and the
# pre-session cold-job baseline (submit + poll to terminal) on the k2
# netlist, recording the latency quantiles and speedups into
# BENCH_session.json. The harness fails unless the warm path is at
# least 10x faster than the cold job at the median; the report is
# still written.
bench-session:
	$(GO) run ./cmd/sizingd -sessionbench -out BENCH_session.json
	cat BENCH_session.json

# fuzz-kernels runs the three native fuzzers behind every Clark max,
# each for a fixed 15 s (the CI kernels job). FuzzCDFPair holds the erfc
# core behind dist.CDFPair bit for bit equal to 0.5*math.Erfc(∓x/Sqrt2);
# its seeds are every branch boundary of the core with its Nextafter
# neighbours. FuzzMax2Kernels holds stats.Max2, Max2Jac, Max2JacInto
# and Max2SigmaJac bit for bit equal to a frozen copy of the kernels
# before the in-place Jacobian; its seeds put |α|/√2 on each core
# branch boundary and cover ties, the θ floor, the pdf/θ halving guard,
# ±0 and NaN/±Inf operands. FuzzMax2StepPair holds each lane of the
# two-lane kernel Max2StepPair bit for bit equal to Max2StepInto; its
# seeds put every FuzzMax2Kernels seed on either lane and a θ-floor
# pair on one lane with an ordinary or edge pair on the other.
fuzz-kernels:
	$(GO) test -run '^$$' -fuzz '^FuzzCDFPair$$' -fuzztime 15s ./internal/dist/
	$(GO) test -run '^$$' -fuzz '^FuzzMax2Kernels$$' -fuzztime 15s ./internal/stats/
	$(GO) test -run '^$$' -fuzz '^FuzzMax2StepPair$$' -fuzztime 15s ./internal/stats/

# fuzz-netlist runs FuzzReadCKT for a fixed 15 s (the CI kernels job):
# the one-pass .ckt reader must accept and reject exactly what the
# frozen strings.Fields reader in internal/netlist/ingest_ref_test.go
# does, with the same error text and the same circuit. Its seeds put
# U+00A0, U+0085, a lone 0x85 byte, CRLF, tabs and mid-line '#' inside
# lines.
fuzz-netlist:
	$(GO) test -run '^$$' -fuzz '^FuzzReadCKT$$' -fuzztime 15s ./internal/netlist/

# check is the CI gate: vet + build + tests + race-checked tests.
check: vet build test race

# faults runs the resilience acceptance suite: the deterministic
# fault-injection harness (internal/faults) driving the solver's
# recovery, degradation, cancellation and checkpoint paths, plus the
# cancellation tests of the SSTA sweep and the parallel Monte Carlo
# engine — race-checked, because the sharded Monte Carlo is where
# goroutines could leak.
faults:
	$(GO) test -race -timeout 5m ./internal/faults/ ./internal/nlp/ \
		./internal/ssta/ ./internal/montecarlo/

# trace runs a sized solve with the JSONL telemetry trace enabled and
# schema-validates the result — the end-to-end smoke test of the
# observability layer. Two runs of the same solve must write
# byte-identical traces (the determinism contract of
# internal/telemetry).
trace:
	$(GO) run ./cmd/statsize -circuit tree7 -objective area \
		-constraint "mu+3sigma<=8" -trace /tmp/statsize-run1.jsonl -metrics
	$(GO) run ./cmd/statsize -circuit tree7 -objective area \
		-constraint "mu+3sigma<=8" -trace /tmp/statsize-run2.jsonl >/dev/null
	cmp /tmp/statsize-run1.jsonl /tmp/statsize-run2.jsonl
	$(GO) run ./cmd/tables -checktrace /tmp/statsize-run1.jsonl

# baseline regenerates the deterministic-vs-statistical comparison
# (tree7 and the three Table 1 circuits) twice at 20k Monte Carlo
# samples and compares the two outputs. Monte Carlo is bit-identical
# for every worker count and the solves are deterministic, so the two
# tables must be byte-identical.
baseline:
	$(GO) run ./cmd/tables -table baseline -samples 20000 > /tmp/baseline-run1.txt
	cat /tmp/baseline-run1.txt
	$(GO) run ./cmd/tables -table baseline -samples 20000 > /tmp/baseline-run2.txt
	cmp /tmp/baseline-run1.txt /tmp/baseline-run2.txt
