GO ?= go

# The ablation benchmarks pinned into BENCH_core.json, and the packages
# that host them. bench-core regenerates the file; bench-diff reruns the
# same set and fails on >20% ns/op regressions against the committed
# baseline. Both run each benchmark 5 times and keep the median.
BENCH_CORE_PATTERN = FreqCacheSharded|WireBatchVsSequential|SweepParallelVsSerial|IndexHistVsScan|RegionPruneParallel|GramParallel|LedgerSpendParallel|LedgerSnapshotReplay|FreqSingleflight|FreqHotHit|StreamApply|WindowRelease
BENCH_CORE_PKGS = ./internal/gsp ./internal/wire ./internal/eval ./internal/index ./internal/attack ./internal/ml ./internal/budget ./internal/stream

.PHONY: all check fmt-check build vet test race bench bench-test bench-core bench-diff fuzz-smoke e2e-cluster e2e-stream loadtest loadtest-cluster loadtest-churn loadtest-duphot loadtest-stream repro repro-full cover loc clean

all: check

# check is the CI gate: formatting, compile, vet, the full suite, and the
# race detector over everything (including the wire e2e and
# fault-injection tests). The ./... patterns cover the examples too —
# they live in this module, so `go list ./...` includes them.
check: fmt-check build vet test race

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-test runs the unit tests of the end-to-end benchmark (oracle,
# quantiles, -compare, layer attribution). bench/ is a module of its own,
# so `go test ./...` at the root skips them. Takes ~2 s and starts no
# daemon.
bench-test:
	$(GO) -C bench test ./...

# bench-core runs the PR-critical benchmarks (the freq cache on the
# attacks' access pattern, miss coalescing, batched wire queries,
# parallel sweep engine, histogram index, pooled region prune, parallel
# Gram, sharded budget ledger, snapshot replay) at a fixed -benchtime
# and writes the parsed numbers to BENCH_core.json for DESIGN.md §5.
bench-core:
	$(GO) test -run '^$$' -bench '$(BENCH_CORE_PATTERN)' \
		-benchmem -benchtime=1s -count=5 $(BENCH_CORE_PKGS) \
		| $(GO) run ./cmd/benchjson -out BENCH_core.json

# bench-diff reruns the core ablations and compares against the committed
# BENCH_core.json without rewriting it; exits nonzero when any shared
# benchmark's median regressed by more than 20% ns/op.
bench-diff:
	$(GO) test -run '^$$' -bench '$(BENCH_CORE_PATTERN)' \
		-benchmem -benchtime=1s -count=5 $(BENCH_CORE_PKGS) \
		| $(GO) run ./cmd/benchjson -prev BENCH_core.json

# fuzz-smoke runs the auth fuzz targets briefly (the corpus seeds already
# run as plain unit tests under `make test`; this adds a short mutation
# pass). Go allows one -fuzz pattern per invocation, hence two runs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzCanonicalString' -fuzztime 15s ./internal/wire
	$(GO) test -run '^$$' -fuzz 'FuzzVerifyRequest' -fuzztime 15s ./internal/wire

# e2e-cluster runs the multi-node proof layer under the race detector:
# the consistent-hash ring property tests, the differential cluster e2e
# (N shards behind gspgw byte-identical to one gspd, auth on and off),
# and the fault-injection tests (shard death mid-batch, probe-driven
# recovery, concurrent ring mutation during fanout).
e2e-cluster:
	$(GO) test -race -count=1 ./internal/cluster
	$(GO) test -race -count=1 -run 'TestCluster|TestGSPClientConnectionRefused|TestGSPClientRecoversFromSingleRefusal' ./internal/wire
	$(GO) test -race -count=1 ./cmd/gspgw

# e2e-stream runs the streaming-ingestion proof layer under the race
# detector: the window store / releaser unit suite, the replay-identity
# e2e (live authenticated NDJSON ingestion vs offline batch replay of
# the captured event log — bit-identical releases, byte-identical
# ledger snapshots), the bounded-memory flood, the per-event ingest
# error surface, backpressure via admission control, and the daemon's
# drain ordering (final flush charges the ledger before Close).
e2e-stream:
	$(GO) test -race -count=1 ./internal/stream
	$(GO) test -race -count=1 -run 'TestStream|TestIngest|TestLBSClientBodyTooLarge' ./internal/wire
	$(GO) test -race -count=1 -run 'TestStreamDrain' ./cmd/lbsd

# loadtest-cluster drives the in-process closed loop against a bare
# gspd (n=0) and 1/2/4-shard fleets behind the gateway, writing
# LOADTEST_cluster_<n>.json. On one machine every shard shares the same
# cores, so this measures the gateway's fan-out/merge overhead — not
# horizontal scaling; scaling needs one machine per shard (see
# DESIGN.md §10 for the committed run and its reading).
loadtest-cluster:
	for n in 0 1 2 4; do \
		$(GO) run ./cmd/loadgen -inprocess -assert -cluster $$n \
			-targets freq,batch -conc 32 -duration 3s -batch 16 \
			-name cluster-$$n -out LOADTEST_cluster_$$n.json; \
	done

# loadtest-duphot measures duplicate-miss collapse: a zipf-skewed hot
# key set whose radius rotates every epoch, so each rotation stampedes
# all 32 workers onto the same fresh misses; -compute-cost pads each
# CountTypes with fixed yielding CPU work so the misses genuinely
# overlap (the contention profile of a dense production city). Writes
# LOADTEST_duphot.json; its "gsp" block shows the coalescing (computes
# below cacheMisses by sfShared), and -assert fails the run if no miss
# joined an in-flight computation. DESIGN.md §11 has the ablation with
# coalescing off.
loadtest-duphot:
	$(GO) run ./cmd/loadgen -inprocess -assert -quiet \
		-targets freq -profile dup-hot -conc 32 -duration 5s \
		-compute-cost 3ms -zipf-s 1.6 -dup-epoch 250ms \
		-name duphot -out LOADTEST_duphot.json

# loadtest-stream drives open-loop NDJSON ingestion with rotating user
# cohorts (a fresh never-seen population every -stream-burst) against
# the in-process stream subsystem while the windowed DP releaser ticks,
# writing LOADTEST_stream.json. The -assert flag fails the run if the
# window store ever exceeds its users × per-user memory cap, so the
# bounded-memory claim is load-tested, not just unit-tested.
loadtest-stream:
	$(GO) run ./cmd/loadgen -inprocess -assert -quiet \
		-targets ingest -profile stream -rate 400 -conc 32 -duration 5s \
		-stream-users 256 -stream-batch 8 -stream-burst 1s -stream-tick 500ms \
		-name stream-ingest -out LOADTEST_stream.json

# loadtest-churn rehearses a live fleet transition: 3 per-shard-cache
# GSP shards behind the gateway, with one retired through the
# membership admin API at a third of the run and a brand-new cold shard
# admitted — after the gateway's city check — at two thirds, writing
# LOADTEST_churn.json. Traffic queries loadgen's ordinary uniform
# locations. The churn block's per-phase latency quantiles and
# effective hit rates are the measurement: the departed→rejoined dip is
# the cost of rebalancing onto a cold shard, and -assert fails the run
# if a transition did not happen or any phase stalls.
loadtest-churn:
	$(GO) run ./cmd/loadgen -inprocess -assert -quiet \
		-targets freq -profile membership-churn -cluster 3 \
		-conc 24 -duration 6s -timeout 5s \
		-name membership-churn -out LOADTEST_churn.json

# loadtest is the overload-protection smoke: drive the in-process
# GSP+LBS stack closed-loop at 4x the admission limit with realistic
# per-release service time, and fail if nothing succeeded or anything
# errored unexpectedly. The JSON report (throughput, p50/p95/p99, shed
# counts) prints to stdout; see DESIGN.md for the saturation comparison.
loadtest:
	$(GO) run ./cmd/loadgen -inprocess -assert \
		-targets freq,batch,release -conc 32 -duration 3s \
		-admit-limit 8 -admit-queue 16 -admit-timeout 100ms \
		-audit-cost 2ms -name loadtest-smoke

# Regenerate every paper figure at quick scale (seconds).
repro:
	$(GO) run ./cmd/poirepro -fig all

# Regenerate every figure at paper scale (several minutes); writes the
# numbers EXPERIMENTS.md cites.
repro-full:
	$(GO) run ./cmd/poirepro -fig all -scale full | tee results_full.txt

cover:
	$(GO) test -cover ./...

# loc prints the non-test Go lines of every directory under internal/
# and cmd/, plus their total: the size report a change that shrinks the
# code quotes before and after.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d  total\n", t }'

clean:
	$(GO) clean ./...
