# Reproduction of "Distributed Online Min-Max Load Balancing with
# Risk-Averse Assistance" (ICDCS 2023). Stdlib-only Go; no network needed.

GO ?= go

.PHONY: all build vet docs test race flake bench cover repro repro-csv fuzz examples clean

all: build vet test

build:
	$(GO) build ./...

# vet also runs the documentation gate and a short fuzz smoke over the
# surfaces fed by untrusted input: wire-frame decoding (arbitrary bytes
# off the network; the seed corpus spans every kind, including the
# membership frames join/roster-update/aggregate), the elastic Algorithm
# 2 peer's handling of decoded frames (every buffer within its bound, in
# flat and tree mode, from senders in and out of the roster), dispatcher
# request admission / policy parsing (arbitrary HTTP ingest traffic and
# operator flags, batched and per-request), the ingest handler's
# query parameter lookup (arbitrary client query strings), the
# /admin/weights, /admin/cap, /admin/shed and /admin/drain decoders
# (routing state stays finite, queue rings follow occupancy, an
# accepted shed or drain takes effect), tenant configs (accepted ones
# resolve finite serving rates) and geo topology validation
# (operator-supplied region/RTT configs). One invocation per target:
# -fuzz matches only one. perfbench is a module of its own, so ./...
# does not reach it; it is vetted from its directory, since it imports
# the cluster, wire, dispatch, core and metrics packages.
vet: docs
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrameBinary -fuzztime=5s ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrameJSON -fuzztime=5s ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzElasticFrames -fuzztime=5s ./internal/cluster/
	$(GO) test -run='^$$' -fuzz=FuzzDispatcherAdmission -fuzztime=5s ./internal/dispatch/
	$(GO) test -run='^$$' -fuzz=FuzzQueryValue -fuzztime=5s ./internal/dispatch/
	$(GO) test -run='^$$' -fuzz=FuzzAdminDecoders -fuzztime=5s ./internal/dispatch/
	$(GO) test -run='^$$' -fuzz=FuzzTenantConfig -fuzztime=5s ./internal/dispatch/
	$(GO) test -run='^$$' -fuzz=FuzzGeoConfig -fuzztime=5s ./internal/geo/

# Documentation coverage and link integrity: every exported declaration
# and every package needs a real doc comment, and every relative link in
# the markdown docs must resolve (see docs_test.go).
docs:
	$(GO) test -run 'TestExportedDeclarationsAreDocumented|TestPackageCommentsPresent|TestMarkdownLinksResolve' .

# The concurrency-sensitive packages (metrics registry, cluster runtime
# including the elastic membership tests, wire codecs, request
# dispatcher) additionally run under the race detector on every default
# test pass, as do the chaos and join-churn soaks — fault injection,
# fail-stop recovery, and roster churn are the most schedule-sensitive
# paths in the repository. The elastic peer's deadline drills (the
# symmetric-deadline race, the asymmetric partition, slow-vs-dead and
# the denied rejoin) run on the virtual-time runner, each under 24
# scheduler seeds, so they take no wall-clock time; the crash drills
# keep real timers to cover the loop's deadline path. The dispatcher's race suite includes the
# live drain storm with keep-alive HTTP clients on a real socket and
# the batched SubmitBatch/CompleteBatch/SetWeights scrape storm over
# whole-chunk tenant runs and chunks of one-request tenant runs. The
# perfbench module's own tests run next (from its directory: ./... stops
# at its go.mod); go test rather than go build, which would leave the
# perfbench binary behind. Last, dolbie-bench -scale regenerates
# BENCH_scale.json into a temporary file, which must match the committed
# one byte for byte (about 10 s): the sweep runs the elastic runtime
# with tree aggregation up to N = 4096, whose epochs are roster
# versions, and the optimum solver behind its gap columns.
test:
	$(GO) test ./...
	$(GO) test -race ./internal/metrics ./internal/cluster ./internal/wire ./internal/dispatch
	$(GO) test -race -run 'TestSoakChaosFullyDistributed|TestSoakJoinChurnElastic' .
	cd perfbench && $(GO) test ./...
	@out=$$(mktemp); \
	if $(GO) run ./cmd/dolbie-bench -scale -out $$out >/dev/null && cmp -s $$out BENCH_scale.json; then \
		rm -f $$out; echo "BENCH_scale.json reproduces byte for byte"; \
	else rm -f $$out; echo "FAIL: dolbie-bench -scale no longer reproduces BENCH_scale.json"; exit 1; fi

race:
	$(GO) test -race ./...

# flake repeats the schedule-sensitive suites 20 times to expose flaky
# tests: both soaks and the race-enabled internal/core and
# internal/cluster suites (the virtual-time drills among them are
# deterministic; the real-timer crash drills and deployments are not).
# It is not part of `make test`.
flake:
	$(GO) test -race -count=20 -run 'TestSoakChaosFullyDistributed|TestSoakJoinChurnElastic' .
	$(GO) test -race -count=20 ./internal/core ./internal/cluster

# Coverage gate: atomic-mode coverage across the repository into
# cover.out, failing if internal/dispatch — the sharded admission path —
# drops below the figure it shipped at (92.6%), or internal/geo — the
# region/latency topology model — below 90%. Atomic mode keeps the
# counters exact under the concurrent-scrape and fuzz replay tests.
DISPATCH_COVER_FLOOR = 92.6
GEO_COVER_FLOOR = 90.0
cover:
	$(GO) test -covermode=atomic -coverprofile=cover.out ./...
	@pct=$$($(GO) test -covermode=atomic -cover ./internal/dispatch/ \
		| sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	echo "internal/dispatch coverage: $$pct% (floor $(DISPATCH_COVER_FLOOR)%)"; \
	awk "BEGIN { exit !($$pct >= $(DISPATCH_COVER_FLOOR)) }" || \
		{ echo "FAIL: internal/dispatch coverage $$pct% below $(DISPATCH_COVER_FLOOR)%"; exit 1; }
	@pct=$$($(GO) test -covermode=atomic -cover ./internal/geo/ \
		| sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	echo "internal/geo coverage: $$pct% (floor $(GEO_COVER_FLOOR)%)"; \
	awk "BEGIN { exit !($$pct >= $(GEO_COVER_FLOOR)) }" || \
		{ echo "FAIL: internal/geo coverage $$pct% below $(GEO_COVER_FLOOR)%"; exit 1; }

# bench runs every go benchmark (in internal/cluster,
# BenchmarkFullyDistributedDeploymentRound reports an 8-peer Algorithm 2
# round's ns and allocations per op, and BenchmarkMemNetParallelInstrumented
# the message path alone, 8 peers each on its own child context as the
# drivers run them) and regenerates the committed benchmark reports:
# BENCH_wire.json
# (messages and bytes per round per protocol per codec on real TCP; the
# hop's ns/op and allocs/op are BenchmarkTCPSendRecv above, and the
# metering path's zero allocations TestInstrumentedMessageAllocatesNothing
# in make test), BENCH_chaos.json (fail-stop
# recovery under the deterministic chaos transport; reproduces bit for
# bit), BENCH_serve.json (data-plane dispatch: DOLBIE's closed loop
# vs uniform WRR vs JSQ on p99 max-worker latency), BENCH_scale.json
# (elastic deployments at N up to 4096: per-worker traffic O(N) flat vs
# O(1) under the aggregation tree, with bit-identical consensus), and
# BENCH_geo.json (geo-distributed serving: RTT-penalized vs
# latency-blind DOLBIE and the DGD baseline on the three-region
# topology, plus the zero-RTT equivalence gate and the region-outage
# drill). Wall-clock throughput and latency of the admission and HTTP
# ingest paths come from perfbench instead
# (bash perfbench/run.sh --workload admit_batch|ingest_http), which
# records the host each run was taken on.
bench:
	$(GO) test -bench=. -benchmem ./...
	$(GO) run ./cmd/dolbie-bench -wire -out BENCH_wire.json
	$(GO) run ./cmd/dolbie-bench -chaos -out BENCH_chaos.json
	$(GO) run ./cmd/dolbie-bench -serve -out BENCH_serve.json
	$(GO) run ./cmd/dolbie-bench -scale -out BENCH_scale.json
	$(GO) run ./cmd/dolbie-bench -geo -out BENCH_geo.json

# Regenerate every paper figure/table at paper scale (N=30, 100
# realizations) as text; add -csv out/ for CSV export.
repro:
	$(GO) run ./cmd/dolbie-bench -fig all

repro-csv:
	$(GO) run ./cmd/dolbie-bench -fig all -csv out/

# Short fuzzing pass over the numerical kernels (including the
# selection-based percentile against its sort-based definition), the
# wire codecs, the elastic peer's frame handling and buffer bounds, the
# dispatcher's admission path, ingest query lookup and admin decoders,
# and the policies' UnmarshalText/String round trips (one go test
# invocation per target: -fuzz only accepts a single match).
fuzz:
	$(GO) test -fuzz=FuzzInverse -fuzztime=10s ./internal/costfn/
	$(GO) test -fuzz=FuzzPercentile -fuzztime=10s ./internal/stats/
	$(GO) test -fuzz=FuzzProject -fuzztime=10s ./internal/simplex/
	$(GO) test -fuzz=FuzzRoundToUnits -fuzztime=10s ./internal/simplex/
	$(GO) test -fuzz=FuzzDecodeFrameBinary -fuzztime=10s ./internal/wire/
	$(GO) test -fuzz=FuzzDecodeFrameJSON -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzElasticFrames -fuzztime=10s ./internal/cluster/
	$(GO) test -fuzz=FuzzDispatcherAdmission -fuzztime=10s ./internal/dispatch/
	$(GO) test -fuzz=FuzzQueryValue -fuzztime=10s ./internal/dispatch/
	$(GO) test -run='^$$' -fuzz=FuzzAdminDecoders -fuzztime=10s ./internal/dispatch/
	$(GO) test -run='^$$' -fuzz=FuzzParsePolicies -fuzztime=10s ./internal/dispatch/
	$(GO) test -fuzz=FuzzTenantConfig -fuzztime=10s ./internal/dispatch/
	$(GO) test -fuzz=FuzzGeoConfig -fuzztime=10s ./internal/geo/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/batchsize
	$(GO) run ./examples/offloading
	$(GO) run ./examples/cluster
	$(GO) run ./examples/estimated

clean:
	rm -rf out/ test_output.txt bench_output.txt
