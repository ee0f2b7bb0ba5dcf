package dolbie

// This file promotes the request-serving data plane to the public API
// surface: the weighted Dispatcher with bounded queues and
// backpressure, the seeded open-loop traffic generator, the HTTP
// ingest adapter, and the closed-loop Serve simulation that feeds
// observed drain latencies back into DOLBIE. The dolbie-serve command
// is a thin shell over exactly this surface.

import (
	"net/http"

	"dolbie/internal/dispatch"
	"dolbie/internal/geo"
	"dolbie/internal/optimum"
)

// Data-plane types, re-exported from the dispatch subsystem.
type (
	// DispatcherConfig parameterizes a Dispatcher: worker count, queue
	// capacity, admission shard count, backpressure policy, routing
	// policy, and an optional metrics registry for the dolbie_dispatch_*
	// family.
	DispatcherConfig = dispatch.Config
	// Dispatcher routes requests onto bounded per-worker FIFO queues by
	// smooth weighted round-robin over the current assignment vector
	// (or join-shortest-queue), applying the configured backpressure
	// policy when a queue is full. Safe for concurrent use: admissions
	// are sharded (each request hashes to one of Shards admission shards
	// and commits inside that shard's short critical section; batched
	// submitters admit up to BatchSize requests per critical section
	// through NewSubmitter; Submit and SubmitBatch run one admission
	// body), completions serialize on a per-worker mutex rather than
	// stopping the world, and weight retunes take a brief
	// stop-the-world epoch across all shards so every shard swaps to the
	// new assignment at the same admission boundary.
	Dispatcher = dispatch.Dispatcher
	// Submitter is a per-goroutine batched admission handle: SubmitBatch
	// admits chunks of up to DispatcherConfig.BatchSize requests per
	// shard critical section with submitter-sticky shard affinity.
	// Request semantics are identical to Dispatcher.Submit; create one
	// Submitter per submitting goroutine.
	Submitter = dispatch.Submitter
	// BatchStats is a consistent snapshot of the batched-admission
	// counters: batches committed, requests they carried, and home-shard
	// affinity hits and misses.
	BatchStats = dispatch.BatchStats
	// ServeRequest is one unit of work entering the data plane.
	ServeRequest = dispatch.Request
	// Verdict is the dispatcher's decision for one submitted request.
	Verdict = dispatch.Verdict
	// Outcome classifies a verdict (routed, spilled, shed, blocked).
	Outcome = dispatch.Outcome
	// ShedPolicy selects the backpressure behaviour on a full queue
	// (ShedReject, ShedBlock, ShedSpill).
	ShedPolicy = dispatch.ShedPolicy
	// RoutePolicy selects the per-request routing rule (RouteWeighted,
	// RouteJSQ).
	RoutePolicy = dispatch.RoutePolicy
	// ControlPolicy selects the control plane of a Serve run
	// (PolicyDOLBIE, PolicyWRR, PolicyJSQ, PolicyDGD).
	ControlPolicy = dispatch.ControlPolicy
	// ServeConfig parameterizes a closed-loop serving run: traffic,
	// worker heterogeneity and utilization, queue bounds, backpressure,
	// control policy, and seed.
	ServeConfig = dispatch.ServeConfig
	// ServeResult summarizes a serving run: shed/spill/block totals,
	// p99 and mean max-worker drain latency, request latency
	// percentiles, and modeled control bytes per round.
	ServeResult = dispatch.ServeResult
	// TrafficGenerator is the seeded open-loop Poisson traffic source
	// used by Serve; drive a Dispatcher directly with it for custom
	// load patterns.
	TrafficGenerator = dispatch.Generator
	// TenantConfig describes one tenant of a multi-tenant dispatcher or
	// serving run: its traffic share, priority class, admission rate
	// contract, backpressure policy, and balancing objective. The zero
	// value is a valid gold tenant inheriting every run-level default.
	TenantConfig = dispatch.TenantConfig
	// PriorityClass is a tenant's service tier (PriorityGold,
	// PrioritySilver, PriorityBronze); under queue pressure lower
	// classes shed strictly before higher ones.
	PriorityClass = dispatch.PriorityClass
	// TenantTotals is a consistent per-tenant snapshot of a Dispatcher's
	// counters, satisfying Arrivals == Routed + Shed + Throttled +
	// Blocked on every snapshot.
	TenantTotals = dispatch.TenantTotals
	// TenantServeResult is one tenant's slice of a multi-tenant Serve
	// run: per-tenant arrivals, outcome split, latency percentiles, and
	// retune count.
	TenantServeResult = dispatch.TenantServeResult
	// Objective selects a tenant's balancing objective: the zero value
	// is the paper's min-max (makespan); ObjectiveLp(p) selects the
	// lp-norm family that interpolates between total cost (p = 1) and
	// makespan fairness (p -> inf).
	Objective = optimum.Objective
	// LiveConfig parameterizes a wall-clock Live engine over a
	// Dispatcher: constant per-worker service speeds, an optional
	// metrics registry for the dolbie_dispatch_live_* family, and a
	// monotone clock.
	LiveConfig = dispatch.LiveConfig
	// Live drains a Dispatcher in real wall-clock time: one goroutine
	// per worker serves queue heads at a constant speed and records
	// each request's wall-clock completion latency. Its Handler adapts
	// the engine to HTTP ingest; its AdminHandler exposes graceful
	// drain and hot reload of shed policy, queue caps, and routing
	// weights.
	Live = dispatch.Live
	// GeoConfig describes a geo-distributed serving topology: named
	// regions homing the workers, the ingest frontend's region, a
	// seeded inter-region RTT matrix, and the AR(1) congestion dynamics
	// evolving it. Set ServeConfig.Geo to serve over it.
	GeoConfig = geo.Config
	// GeoRegionConfig names one region of a GeoConfig and the number of
	// workers homed there.
	GeoRegionConfig = geo.RegionConfig
	// GeoOutage pins every inter-region link touching a region to the
	// outage RTT for an inclusive round window — the geo bench's drill.
	GeoOutage = geo.Outage
	// GeoServeResult is the regional summary of a geo serving run:
	// per-region latency percentiles, the cross-region spill fraction,
	// and the penalized-regret ledger.
	GeoServeResult = dispatch.GeoServeResult
	// RegionServeResult is one region's slice of a GeoServeResult.
	RegionServeResult = dispatch.RegionServeResult
)

// Re-exported data-plane enum values.
const (
	// ShedReject drops a request whose target queue is full (HTTP 429).
	ShedReject = dispatch.ShedReject
	// ShedBlock refuses admission without dropping; the caller retries
	// after a completion (HTTP 503).
	ShedBlock = dispatch.ShedBlock
	// ShedSpill reroutes to the least-loaded worker with queue space.
	ShedSpill = dispatch.ShedSpill
	// RouteWeighted routes by smooth weighted round-robin.
	RouteWeighted = dispatch.RouteWeighted
	// RouteJSQ joins the shortest queue.
	RouteJSQ = dispatch.RouteJSQ
	// PolicyDOLBIE retunes routing weights from observed drain
	// latencies every round (the closed loop).
	PolicyDOLBIE = dispatch.PolicyDOLBIE
	// PolicyWRR keeps static uniform weights.
	PolicyWRR = dispatch.PolicyWRR
	// PolicyJSQ joins the shortest queue per request.
	PolicyJSQ = dispatch.PolicyJSQ
	// PolicyDGD retunes routing weights by projected gradient descent
	// on the aggregate traffic-weighted cost — the
	// Balseiro–Mirrokni–Wydrowski baseline, which optimizes the mean
	// rather than the paper's straggler max.
	PolicyDGD = dispatch.PolicyDGD
	// PriorityGold admits up to the full queue capacity (sheds last).
	PriorityGold = dispatch.PriorityGold
	// PrioritySilver admits up to 3/4 of the queue capacity.
	PrioritySilver = dispatch.PrioritySilver
	// PriorityBronze admits up to 1/2 of the queue capacity (sheds
	// first).
	PriorityBronze = dispatch.PriorityBronze
	// Routed is the verdict outcome for a request enqueued on its
	// weighted target.
	Routed = dispatch.Routed
	// Spilled is the verdict outcome for a request rerouted to the
	// least-loaded worker with space (ShedSpill).
	Spilled = dispatch.Spilled
	// OutcomeShed is the verdict outcome for a request dropped by queue
	// backpressure (named to avoid colliding with the ShedPolicy
	// constants).
	OutcomeShed = dispatch.Shed
	// Blocked is the verdict outcome for a refused admission the caller
	// should retry after a completion (ShedBlock).
	Blocked = dispatch.Blocked
	// Throttled is the verdict outcome for a request dropped at the door
	// by its tenant's admission rate contract — distinct from shed so
	// callers can tell "the system is full" from "this tenant exceeded
	// its contract".
	Throttled = dispatch.Throttled
)

// NewDispatcher constructs a request dispatcher with uniform initial
// weights; retune it with SetWeights (typically from a Balancer's
// Assignment).
func NewDispatcher(cfg DispatcherConfig) (*Dispatcher, error) { return dispatch.New(cfg) }

// NewTrafficGenerator constructs the seeded open-loop traffic source:
// Poisson arrivals at rate requests per second with exponential
// demands around demandMean work units.
func NewTrafficGenerator(rate, demandMean float64, seed int64) (*TrafficGenerator, error) {
	return dispatch.NewGenerator(rate, demandMean, seed)
}

// DefaultServeConfig returns the serving defaults used by dolbie-serve
// and the serve bench.
func DefaultServeConfig() ServeConfig { return dispatch.DefaultServeConfig() }

// Serve runs one deterministic closed-loop serving simulation and
// returns its summary: seeded traffic feeds the dispatcher, simulated
// workers drain their queues at time-varying speeds, and (under
// PolicyDOLBIE) each round's observed per-worker drain latency becomes
// l_{i,t}, retuning the routing weights for the next round.
func Serve(cfg ServeConfig) (*ServeResult, error) { return dispatch.Serve(cfg) }

// ServeComparison runs the same seeded traffic realization under all
// three control policies — DOLBIE, uniform WRR, JSQ — and returns the
// results in that order.
func ServeComparison(cfg ServeConfig) ([]*ServeResult, error) { return dispatch.RunComparison(cfg) }

// IngestHandler adapts a Dispatcher to live HTTP traffic: each POST is
// one admission (200 routed/spilled, 429 shed/throttled, 503 blocked
// or draining — refusals carry a Retry-After backoff hint derived from
// the shed policy and current queue depth), with the service demand
// taken from the "demand" query parameter. now supplies arrival
// timestamps in seconds. See the dispatch.IngestHandler doc comment
// for the full status-code table.
func IngestHandler(d *Dispatcher, now func() float64) http.Handler {
	return dispatch.IngestHandler(d, now)
}

// NewLive starts the wall-clock serving engine over cfg.Dispatcher:
// workers begin draining immediately, and the returned engine's
// Handler/AdminHandler serve live ingest and operations. Stop with
// Close (after BeginDrain and WaitIdle for a graceful shutdown).
func NewLive(cfg LiveConfig) (*Live, error) { return dispatch.NewLive(cfg) }

// LiveWorkerSpeeds derives the constant per-worker service speeds a
// Live engine should run to mirror cfg's simulated cluster: the same
// 5x-spread catalog means, scaled so total capacity serves
// ArrivalRate*DemandMean at the target utilization. Pair with
// ServeConfig.ConstantSpeeds to measure the simulation-vs-reality gap
// on otherwise identical configurations.
func LiveWorkerSpeeds(cfg ServeConfig) ([]float64, error) { return dispatch.LiveWorkerSpeeds(cfg) }

// DefaultTenants returns a freshly allocated slice of t equal-weight
// tenants cycling through the priority classes gold, silver, bronze —
// the multi-tenant counterpart of DefaultServeConfig.
func DefaultTenants(t int) []TenantConfig { return dispatch.DefaultTenants(t) }

// GeoUniform builds a degenerate uniform topology: regions regions of
// workersPerRegion workers each, every link (intra-region included)
// frozen at rtt seconds, frontend in region 0. With rtt = 0 a geo run
// over it reproduces the region-less serving path bit for bit.
func GeoUniform(regions, workersPerRegion int, rtt float64) GeoConfig {
	return geo.Uniform(regions, workersPerRegion, rtt)
}

// GeoThreeRegions builds the heterogeneous us-east/eu-west/ap-south
// reference topology over n workers with evolving RTTs — the geo
// bench's standard scenario.
func GeoThreeRegions(n int, seed int64) GeoConfig { return geo.ThreeRegions(n, seed) }

// ObjectiveMinMax returns the paper's min-max (makespan) objective —
// the zero Objective value.
func ObjectiveMinMax() Objective { return optimum.MinMax() }

// ObjectiveLp returns the lp-norm balancing objective of order p >= 1;
// validity is checked by TenantConfig.Validate (and ServeConfig /
// DispatcherConfig validation), not here.
func ObjectiveLp(p float64) Objective { return optimum.Lp(p) }
