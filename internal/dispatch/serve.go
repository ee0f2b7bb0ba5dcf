package dispatch

import (
	"fmt"
	"math"

	"dolbie/internal/baselines"
	"dolbie/internal/core"
	"dolbie/internal/costfn"
	"dolbie/internal/geo"
	"dolbie/internal/metrics"
	"dolbie/internal/stats"
	"dolbie/internal/trace"
)

// ControlPolicy selects the control plane driving the dispatcher's
// routing in a Serve run.
type ControlPolicy int

const (
	// PolicyDOLBIE routes by smooth WRR over weights retuned every
	// round by the DOLBIE balancer from observed drain latencies (the
	// closed loop).
	PolicyDOLBIE ControlPolicy = iota
	// PolicyWRR routes by smooth WRR over static uniform weights (the
	// speed-oblivious baseline).
	PolicyWRR
	// PolicyJSQ joins the shortest queue on every request (the greedy
	// queue-depth baseline).
	PolicyJSQ
	// PolicyDGD routes by smooth WRR over weights retuned every round by
	// the distributed-gradient-descent baseline (baselines.DGD, after
	// Balseiro/Mirrokni/Wydrowski): projected gradient descent on the
	// aggregate traffic-weighted cost rather than DOLBIE's risk-averse
	// min-max step. Under geo serving both retune on the same
	// latency-penalized signal, which is what makes them comparable.
	PolicyDGD
)

// String returns the policy's flag spelling ("dolbie", "wrr", "jsq",
// "dgd"). It implements fmt.Stringer.
func (p ControlPolicy) String() string {
	switch p {
	case PolicyDOLBIE:
		return "dolbie"
	case PolicyWRR:
		return "wrr"
	case PolicyJSQ:
		return "jsq"
	case PolicyDGD:
		return "dgd"
	}
	return fmt.Sprintf("ControlPolicy(%d)", int(p))
}

// MarshalText implements encoding.TextMarshaler with the String
// spelling.
func (p ControlPolicy) MarshalText() ([]byte, error) {
	switch p {
	case PolicyDOLBIE, PolicyWRR, PolicyJSQ, PolicyDGD:
		return []byte(p.String()), nil
	}
	return nil, fmt.Errorf("dispatch: unknown control policy %d", int(p))
}

// UnmarshalText implements encoding.TextUnmarshaler, accepting
// "dolbie", "wrr" (or "uniform"), "jsq", and "dgd" in the spellings the
// -policy flag takes.
func (p *ControlPolicy) UnmarshalText(text []byte) error {
	switch string(text) {
	case "dolbie", "DOLBIE":
		*p = PolicyDOLBIE
	case "wrr", "uniform", "WRR":
		*p = PolicyWRR
	case "jsq", "JSQ":
		*p = PolicyJSQ
	case "dgd", "DGD":
		*p = PolicyDGD
	default:
		return fmt.Errorf("dispatch: unknown control policy %q (want dolbie, wrr, jsq, or dgd)", text)
	}
	return nil
}

// ServeConfig parameterizes one closed-loop serving run.
type ServeConfig struct {
	// N is the number of workers.
	N int
	// Rounds is the number of control rounds to simulate.
	Rounds int
	// RoundDur is the round length in virtual seconds; worker speeds
	// are resampled and (under PolicyDOLBIE) routing weights retuned at
	// every round boundary.
	RoundDur float64
	// ArrivalRate is the open-loop Poisson arrival rate in requests per
	// virtual second.
	ArrivalRate float64
	// DemandMean is the mean exponential service demand per request in
	// work units.
	DemandMean float64
	// Utilization is the target offered-load fraction: worker mean
	// speeds are scaled so that the cluster's total mean capacity is
	// ArrivalRate*DemandMean/Utilization. Values near 1 saturate the
	// system. Zero defaults to 0.75.
	Utilization float64
	// QueueCap bounds every worker's FIFO queue.
	QueueCap int
	// Shards is the dispatcher's admission shard count (0 defaults to
	// 1). The virtual-time engine is single-threaded either way, so any
	// shard count is deterministic; Shards=1 reproduces the single-lock
	// admission sequence bit for bit.
	Shards int
	// BatchSize is the engine's admission batch width. 0 or 1 admits
	// every arrival individually at its arrival instant — the historical
	// engine, bit for bit. K > 1 buffers consecutive arrivals and
	// flushes them through SubmitBatch (one shard critical section per
	// flush, rotating submitter-sticky shard handles) whenever the
	// buffer fills, a completion event is next, or the round ends; a
	// buffered request's service starts at its flush, so batching trades
	// a bounded admission delay for amortized lock cost, exactly like
	// the live ingest path it models. Deterministic for any K.
	// Incompatible with ShedBlock (a blocked verdict must stall its
	// tenant's source before the next admission, which a batch already
	// in flight cannot honor).
	BatchSize int
	// Shed selects the backpressure policy.
	Shed ShedPolicy
	// Policy selects the control plane (dolbie, wrr, jsq, dgd).
	Policy ControlPolicy
	// Alpha1 pins DOLBIE's initial step size; zero defaults to 0.05, a
	// tracking-friendly choice for short serving runs (the paper's
	// 0.001 is tuned for 100+-round batch experiments).
	Alpha1 float64
	// Tenants configures multi-tenant serving: each tenant runs its own
	// seeded open-loop traffic source and, under PolicyDOLBIE, its own
	// balancer (simplex, step rule, and objective) over the shared
	// worker pool, with priority-class shedding and optional admission
	// rate contracts enforced by the dispatcher. A tenant's Rate is its
	// offered arrival rate; zero derives it as the tenant's Weight share
	// of ArrivalRate. DemandMean and Alpha1 inherit the run level when
	// zero. Empty Tenants runs the single anonymous stream — the
	// historical behaviour, reproduced bit for bit as the one-tenant
	// special case of the same engine.
	Tenants []TenantConfig
	// ConstantSpeeds freezes every worker's speed process at its
	// catalog mean (no AR(1) fluctuation) — the virtual-time twin of
	// the live engine's constant-rate workers. Running Serve with
	// ConstantSpeeds and a live run over LiveWorkerSpeeds of the same
	// configuration makes the two directly comparable: the residual
	// difference is the simulation-vs-reality gap.
	ConstantSpeeds bool
	// Geo tags the workers with the regions of a geo topology and runs
	// the engine latency-aware: every completion pays the evolving
	// frontend→worker-region RTT on top of its drain latency, and the
	// closed loop (PolicyDOLBIE, PolicyDGD) retunes on the penalized
	// effective cost l_{i,t} + RTT_{i,t} — the penalty lands in the
	// routing weights the control plane already pushes, so the sharded
	// admission path needs no new locks. Geo.N() must equal N. Nil runs
	// the region-less engine unchanged, and a zero-RTT topology
	// reproduces it bit for bit (the pinned geo equivalence test).
	Geo *geo.Config
	// GeoBlind keeps the geo latency accounting but feeds the closed
	// loop the drain-only costs — the latency-blind ablation the geo
	// bench compares penalized routing against. Requires Geo.
	GeoBlind bool
	// Seed makes the whole run deterministic: generator, demands, and
	// worker speed processes all derive from it (tenant k's traffic
	// stream is seeded Seed + 7919k, so tenant 0 replays the
	// single-stream trace exactly).
	Seed int64
	// Metrics instruments the underlying dispatcher; nil disables.
	Metrics *metrics.Registry

	// observeRound, when non-nil, is called at every round boundary with
	// the round's observed per-worker drain latencies l_{i,t} (the slice
	// is reused; copy to retain). Unexported: the equivalence tests use
	// it to compare the fed-back cost sequence bit for bit.
	observeRound func(round int, costs []float64)
}

// DefaultServeConfig returns the serving defaults used by dolbie-serve
// and the serve bench: 8 workers with 5x speed heterogeneity at 75%
// mean utilization, 240 one-second rounds, reject backpressure, and no
// tenants (the anonymous single stream). Every call returns freshly
// allocated slice fields (use DefaultTenants to populate Tenants), so
// two configurations never alias.
func DefaultServeConfig() ServeConfig {
	return ServeConfig{
		N:           8,
		Rounds:      240,
		RoundDur:    1,
		ArrivalRate: 200,
		DemandMean:  1,
		Utilization: 0.75,
		QueueCap:    64,
		Shed:        ShedReject,
		Policy:      PolicyDOLBIE,
		Alpha1:      0.05,
		Seed:        1,
	}
}

// Validate checks the configuration.
func (c ServeConfig) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("dispatch: N = %d must be positive", c.N)
	}
	if c.Rounds <= 0 {
		return fmt.Errorf("dispatch: Rounds = %d must be positive", c.Rounds)
	}
	if !positiveFinite(c.RoundDur) {
		return fmt.Errorf("dispatch: RoundDur = %v must be positive and finite", c.RoundDur)
	}
	if !positiveFinite(c.ArrivalRate) {
		return fmt.Errorf("dispatch: ArrivalRate = %v must be positive and finite", c.ArrivalRate)
	}
	if !positiveFinite(c.DemandMean) {
		return fmt.Errorf("dispatch: DemandMean = %v must be positive and finite", c.DemandMean)
	}
	if !(c.Utilization >= 0 && c.Utilization < 1.5) {
		return fmt.Errorf("dispatch: Utilization = %v out of (0, 1.5)", c.Utilization)
	}
	if c.QueueCap <= 0 {
		return fmt.Errorf("dispatch: QueueCap = %d must be positive", c.QueueCap)
	}
	if c.BatchSize > 1 {
		if len(c.Tenants) == 0 && c.Shed == ShedBlock {
			return fmt.Errorf("dispatch: BatchSize = %d incompatible with ShedBlock (a blocked verdict must stall its source before the next admission)", c.BatchSize)
		}
		for i, t := range c.Tenants {
			if t.Shed == ShedBlock {
				return fmt.Errorf("dispatch: tenant %d (%q): BatchSize = %d incompatible with ShedBlock", i, t.Name, c.BatchSize)
			}
		}
	}
	switch c.Policy {
	case PolicyDOLBIE, PolicyWRR, PolicyJSQ, PolicyDGD:
	default:
		return fmt.Errorf("dispatch: unknown control policy %d", int(c.Policy))
	}
	if c.Geo != nil {
		if err := c.Geo.Validate(); err != nil {
			return err
		}
		if gn := c.Geo.N(); gn != c.N {
			return fmt.Errorf("dispatch: geo topology holds %d workers for N = %d", gn, c.N)
		}
	} else if c.GeoBlind {
		return fmt.Errorf("dispatch: GeoBlind requires a Geo topology")
	}
	if !(c.Alpha1 >= 0 && c.Alpha1 <= 1) {
		return fmt.Errorf("dispatch: Alpha1 = %v out of [0, 1]", c.Alpha1)
	}
	for i, t := range c.Tenants {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("dispatch: tenant %d: %w", i, err)
		}
		if t.Rate == 0 && t.Weight == 0 {
			return fmt.Errorf("dispatch: tenant %d (%q) needs a positive Rate or Weight to receive traffic", i, t.Name)
		}
	}
	return Config{N: c.N, QueueCap: c.QueueCap, Shards: c.Shards, BatchSize: c.BatchSize, Shed: c.Shed, Route: RouteWeighted, Tenants: c.Tenants}.Validate()
}

// positiveFinite reports whether v is a finite number above zero: NaN
// and +Inf fail, as neither is a rate, duration or demand a run can
// simulate.
func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// tenantSeedStride separates per-tenant generator seeds; tenant 0 keeps
// the run seed itself so the one-tenant run replays the single-stream
// trace exactly.
const tenantSeedStride = 7919

// resolvedServeTenants returns the effective serving tenant list with
// every inherited field filled in: the single anonymous tenant carrying
// the run-level rate, demand, shed policy, and step size when Tenants
// is empty; otherwise a copy with zero Rates derived from Weight shares
// of ArrivalRate and zero DemandMean/Alpha1 inheriting the run level.
func (c ServeConfig) resolvedServeTenants() []TenantConfig {
	if len(c.Tenants) == 0 {
		return []TenantConfig{{
			Name:       "default",
			Priority:   PriorityGold,
			Shed:       c.Shed,
			Rate:       c.ArrivalRate,
			DemandMean: c.DemandMean,
			Alpha1:     c.Alpha1,
		}}
	}
	out := make([]TenantConfig, len(c.Tenants))
	copy(out, c.Tenants)
	var totalW float64
	for _, t := range out {
		if t.Rate == 0 {
			totalW += t.Weight
		}
	}
	for i := range out {
		if out[i].Name == "" {
			out[i].Name = fmt.Sprintf("tenant%d", i)
		}
		if out[i].Rate == 0 {
			out[i].Rate = c.ArrivalRate * (out[i].Weight / totalW)
		}
		if out[i].DemandMean == 0 {
			out[i].DemandMean = c.DemandMean
		}
		if out[i].Alpha1 == 0 {
			out[i].Alpha1 = c.Alpha1
		}
	}
	return out
}

// ServeResult summarizes one closed-loop serving run.
type ServeResult struct {
	// Policy is the control policy's name ("dolbie", "wrr", "jsq",
	// "dgd").
	Policy string `json:"policy"`
	// N, Rounds, QueueCap, Shards, Seed echo the configuration.
	N        int   `json:"n"`
	Rounds   int   `json:"rounds"`
	QueueCap int   `json:"queue_cap"`
	Shards   int   `json:"shards"`
	Seed     int64 `json:"seed"`
	// BatchSize echoes the engine's admission batch width; omitted on
	// per-request runs (the historical JSON output is unchanged).
	BatchSize int `json:"batch_size,omitempty"`
	// Shed is the backpressure policy's name.
	Shed string `json:"shed"`
	// Arrivals counts admission attempts; Completed, ShedCount,
	// Spilled, and Blocked are the dispatcher's totals.
	Arrivals  int64 `json:"arrivals"`
	Completed int64 `json:"completed"`
	ShedCount int64 `json:"shed_count"`
	Spilled   int64 `json:"spilled"`
	Blocked   int64 `json:"blocked"`
	// ShedRate is ShedCount/Arrivals (0 when there were no arrivals).
	ShedRate float64 `json:"shed_rate"`
	// MaxWorkerLatencyP99 and MaxWorkerLatencyMean summarize the
	// per-round max-worker drain latency max_i l_{i,t} in seconds — the
	// paper's global cost, measured on live queues. The p99 is the
	// bench's headline comparison metric.
	MaxWorkerLatencyP99  float64 `json:"max_worker_latency_p99_s"`
	MaxWorkerLatencyMean float64 `json:"max_worker_latency_mean_s"`
	// RequestLatencyP50 and RequestLatencyP99 summarize per-request
	// completion latency (completion minus arrival) in seconds.
	RequestLatencyP50 float64 `json:"request_latency_p50_s"`
	RequestLatencyP99 float64 `json:"request_latency_p99_s"`
	// BytesPerRound is the modeled control-plane traffic per round:
	// DOLBIE broadcasts N float64 weights behind a 12-byte frame header
	// (8N+12), JSQ refreshes N uint32 queue depths (4N), and static WRR
	// sends nothing after setup (0). Worker execution is simulated, so
	// this is a model, not a wire measurement.
	BytesPerRound float64 `json:"bytes_per_round"`
	// Retunes counts closed-loop weight updates applied (one per tenant
	// per round under PolicyDOLBIE).
	Retunes int64 `json:"retunes"`
	// Tenants breaks the run down per tenant; nil on single-stream runs
	// (empty ServeConfig.Tenants), so historical JSON output is
	// unchanged.
	Tenants []TenantServeResult `json:"tenants,omitempty"`
	// Geo breaks the run down per region; nil on region-less runs
	// (ServeConfig.Geo unset), so historical JSON output is unchanged.
	Geo *GeoServeResult `json:"geo,omitempty"`
}

// TenantServeResult summarizes one tenant's slice of a multi-tenant
// serving run.
type TenantServeResult struct {
	// Name is the tenant's resolved name.
	Name string `json:"name"`
	// Priority is the tenant's service tier ("gold", "silver",
	// "bronze").
	Priority string `json:"priority"`
	// Objective names the tenant's balancing objective ("minmax",
	// "l2", ...).
	Objective string `json:"objective"`
	// Rate is the tenant's resolved offered arrival rate in requests
	// per virtual second.
	Rate float64 `json:"rate"`
	// RateLimit echoes the tenant's admission rate contract (0 =
	// unlimited).
	RateLimit float64 `json:"rate_limit"`
	// Arrivals, Completed, Routed, ShedCount, Throttled, Spilled, and
	// Blocked are the dispatcher's per-tenant totals.
	Arrivals  int64 `json:"arrivals"`
	Completed int64 `json:"completed"`
	Routed    int64 `json:"routed"`
	ShedCount int64 `json:"shed_count"`
	Throttled int64 `json:"throttled"`
	Spilled   int64 `json:"spilled"`
	Blocked   int64 `json:"blocked"`
	// ShedRate is (ShedCount+Throttled)/Arrivals (0 with no arrivals).
	ShedRate float64 `json:"shed_rate"`
	// RequestLatencyP50 and RequestLatencyP99 summarize the tenant's
	// per-request completion latency in seconds.
	RequestLatencyP50 float64 `json:"request_latency_p50_s"`
	RequestLatencyP99 float64 `json:"request_latency_p99_s"`
	// Retunes counts the tenant's closed-loop weight updates.
	Retunes int64 `json:"retunes"`
}

// workerSpeeds builds the heterogeneous seeded speed processes: mean
// speeds follow the repository's 5x-spread catalog (matching
// cluster.SyntheticSource), scaled so total mean capacity serves the
// run-level nominal load ArrivalRate*DemandMean at the configured
// utilization, with clamped AR(1) fluctuation per worker. Capacity is
// deliberately provisioned from the run-level knobs, never from the
// tenants' summed rates: a tenant spiking past its share is genuine
// overload (the isolation drills depend on this), not a bigger
// cluster.
func workerSpeeds(cfg ServeConfig) ([]trace.Process, []float64, error) {
	catalog := []float64{1, 1.5, 2.5, 6, 10}
	means := make([]float64, cfg.N)
	var sum float64
	for i := range means {
		means[i] = catalog[i%len(catalog)]
		sum += means[i]
	}
	util := cfg.Utilization
	if util == 0 {
		util = 0.75
	}
	scale := cfg.ArrivalRate * cfg.DemandMean / (util * sum)
	procs := make([]trace.Process, cfg.N)
	for i := range procs {
		means[i] *= scale
		if cfg.ConstantSpeeds {
			procs[i] = &trace.Constant{Value: means[i]}
			continue
		}
		ar, err := trace.NewAR1(means[i], 0.8, 0.1*means[i], cfg.Seed+101*int64(i)+1)
		if err != nil {
			return nil, nil, err
		}
		procs[i] = &trace.Clamp{Inner: ar, Min: 0.2 * means[i], Max: 3 * means[i]}
	}
	return procs, means, nil
}

// LiveWorkerSpeeds derives the constant per-worker service speeds (work
// units per wall-clock second) a Live engine should run to mirror the
// configuration's simulated cluster: the same 5x-spread catalog means,
// scaled so total capacity serves ArrivalRate*DemandMean at the target
// utilization. Feed the result to LiveConfig.Speeds and the matching
// ConstantSpeeds simulation becomes the live run's virtual-time twin.
func LiveWorkerSpeeds(cfg ServeConfig) ([]float64, error) {
	cfg.ConstantSpeeds = true
	_, means, err := workerSpeeds(cfg)
	return means, err
}

// dataPlane is the slice of the dispatcher surface the closed-loop
// serving engine drives. Both the sharded Dispatcher and the tests'
// single-lock refDispatcher satisfy it, which is what lets the
// equivalence tests run the identical engine over both implementations
// and compare every observable bit for bit.
type dataPlane interface {
	Submit(r Request) Verdict
	Head(worker int) (Request, bool)
	Complete(worker int, now float64) (Request, bool)
	Backlog() []float64
	SetWeights(w []float64) error
	SetTenantWeights(k int, w []float64) error
	Totals() Totals
	TenantTotals() []TenantTotals
}

// roundController is the per-tenant control plane the serving engine
// retunes every round: DOLBIE's risk-averse balancer for the min-max
// objective, the lp-norm follow-the-optimum stepper otherwise. Both
// expose the same simplex point / observation surface.
type roundController interface {
	Assignment() []float64
	Update(obs core.Observation) error
}

// newTenantController builds tenant t's controller at the uniform
// initial assignment. alpha 0 falls back to the serving default 0.05.
// PolicyDGD swaps DOLBIE's risk-averse stepper for the
// distributed-gradient-descent baseline at the same step size (its
// learning rate; the tenant's objective is ignored — DGD always
// descends the aggregate cost).
func newTenantController(n int, t TenantConfig, policy ControlPolicy) (roundController, error) {
	alpha := t.Alpha1
	if alpha == 0 {
		alpha = 0.05
	}
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = 1 / float64(n)
	}
	if policy == PolicyDGD {
		return baselines.NewDGD(x0, alpha)
	}
	if t.Objective.IsMinMax() {
		return core.NewBalancer(x0, core.WithInitialAlpha(alpha))
	}
	return core.NewLpBalancer(x0, t.Objective, alpha)
}

// tenantRuntime is one tenant's slice of the serving engine: its seeded
// open-loop source, its blocked-request slot, and (under PolicyDOLBIE)
// its controller. The slot holds the request by value, so an arrival
// never escapes to the heap.
type tenantRuntime struct {
	cfg     TenantConfig // resolved (rate, demand, alpha filled)
	gen     *Generator
	next    Request
	pending Request // blocked request stalling this tenant's source, while blocked
	blocked bool
	ctl     roundController
	offered float64   // work offered this round (reset at round start)
	reqLat  []float64 // completion latencies; kept only on multi-tenant runs
	retunes int64
}

// Serve runs one deterministic closed-loop serving simulation: the
// seeded open-loop generator feeds the dispatcher, workers drain their
// queues at time-varying simulated speeds, and — under PolicyDOLBIE —
// each round's observed drain latencies l_{i,t} are fed back to the
// balancer, whose x_{t+1} becomes the next round's routing weights.
// Virtual time advances event by event, so results are bit-identical
// across runs with the same configuration.
func Serve(cfg ServeConfig) (*ServeResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	route := RouteWeighted
	if cfg.Policy == PolicyJSQ {
		route = RouteJSQ
	}
	d, err := New(Config{N: cfg.N, QueueCap: cfg.QueueCap, Shards: cfg.Shards, BatchSize: cfg.BatchSize, Shed: cfg.Shed, Route: route, Tenants: cfg.Tenants, Metrics: cfg.Metrics})
	if err != nil {
		return nil, err
	}
	return serveWith(cfg, d)
}

// maxLatencyHint caps latencyHint, so that an extreme or NaN configured
// rate reserves at most 8 MiB up front; a run that completes more
// requests than that grows the buffer by append.
const maxLatencyHint = 1 << 20

// latencyHint is the capacity to reserve for the completion latencies of
// a Poisson stream offering rate requests per virtual second over the
// whole run: the mean arrival count plus four standard deviations, so
// the buffer is rarely regrown. Completions never outnumber arrivals.
func latencyHint(rate float64, cfg ServeConfig) int {
	mean := rate * float64(cfg.Rounds) * cfg.RoundDur
	n := mean + 4*math.Sqrt(mean) + 16
	if !(n < maxLatencyHint) {
		return maxLatencyHint
	}
	return int(n)
}

// serveWith runs the closed-loop engine over an already-constructed data
// plane. It assumes cfg has been validated. The engine is tenant-first:
// the anonymous single stream is literally the one-tenant run of the
// same code (no separate path), which is what keeps historical results
// bit-identical.
func serveWith(cfg ServeConfig, d dataPlane) (*ServeResult, error) {
	tenants := cfg.resolvedServeTenants()
	multiTenant := len(cfg.Tenants) > 0
	trs := make([]tenantRuntime, len(tenants))
	var totalRate float64
	for k, tc := range tenants {
		gen, err := NewGenerator(tc.Rate, tc.DemandMean, cfg.Seed+tenantSeedStride*int64(k))
		if err != nil {
			return nil, fmt.Errorf("dispatch: tenant %q: %w", tc.Name, err)
		}
		trs[k] = tenantRuntime{cfg: tc, gen: gen, next: gen.Next()}
		totalRate += tc.Rate
		if multiTenant {
			trs[k].reqLat = make([]float64, 0, latencyHint(tc.Rate, cfg))
		}
		if cfg.Policy == PolicyDOLBIE || cfg.Policy == PolicyDGD {
			ctl, err := newTenantController(cfg.N, tc, cfg.Policy)
			if err != nil {
				return nil, fmt.Errorf("dispatch: tenant %q: %w", tc.Name, err)
			}
			trs[k].ctl = ctl
		}
	}
	speeds, _, err := workerSpeeds(cfg)
	if err != nil {
		return nil, err
	}
	gs, err := newGeoState(cfg)
	if err != nil {
		return nil, err
	}

	var (
		now       float64
		remaining = make([]float64, cfg.N) // work left on each in-service head
		gamma     = make([]float64, cfg.N)
		seq       int64 // global request IDs, assigned in arrival order
		reqLat    = make([]float64, 0, latencyHint(totalRate, cfg))
		maxLat    = make([]float64, 0, cfg.Rounds)
		retunes   int64
	)

	// admit routes one request into the dispatcher and starts service if
	// the target worker was idle, returning the dispatcher's verdict
	// (Blocked requests stall their tenant's source until the next
	// completion).
	admit := func(r Request, routedWork []float64) Verdict {
		v := d.Submit(r)
		switch v.Outcome {
		case Routed, Spilled:
			routedWork[v.Worker] += r.Demand
			if remaining[v.Worker] == 0 {
				remaining[v.Worker] = r.Demand
			}
			if gs != nil {
				gs.onRouted(v.Worker)
			}
		}
		return v
	}

	// advance moves virtual time forward, draining every busy worker at
	// its current speed. Callers only advance to the earliest completion
	// time or earlier, so remaining work cannot go negative except for
	// float dust (cleared at the completion event itself).
	advance := func(to float64) {
		dt := to - now
		for i := range remaining {
			if remaining[i] > 0 {
				remaining[i] -= gamma[i] * dt
			}
		}
		now = to
	}

	// Batched ingest: arrivals are buffered and flushed through
	// SubmitBatch — one shard critical section per flush — rotating over
	// one submitter-sticky handle per shard so every shard's capacity
	// slice stays in play. A buffered request's service starts at its
	// flush (the batching delay the knob trades for amortized lock
	// cost); ShedBlock is excluded by Validate, so no flush verdict can
	// require stalling a source mid-batch.
	batch := Config{BatchSize: cfg.BatchSize}.batchSize()
	var (
		subs     []*Submitter
		batchBuf []Request
		batchOut []Verdict
		flushes  int
	)
	if batch > 1 {
		bp, ok := d.(*Dispatcher)
		if !ok {
			return nil, fmt.Errorf("dispatch: BatchSize = %d requires the sharded dispatcher", cfg.BatchSize)
		}
		subs = make([]*Submitter, bp.Shards())
		for i := range subs {
			subs[i] = bp.NewSubmitter()
		}
		batchBuf = make([]Request, 0, batch)
		batchOut = make([]Verdict, 0, batch)
	}
	flush := func(routedWork []float64) {
		if len(batchBuf) == 0 {
			return
		}
		sub := subs[flushes%len(subs)]
		flushes++
		batchOut = sub.SubmitBatch(batchBuf, batchOut[:0])
		for i, v := range batchOut {
			r := batchBuf[i]
			tr := &trs[r.Tenant]
			switch v.Outcome {
			case Routed, Spilled:
				routedWork[v.Worker] += r.Demand
				if remaining[v.Worker] == 0 {
					remaining[v.Worker] = r.Demand
				}
				if gs != nil {
					gs.onRouted(v.Worker)
				}
				tr.offered += r.Demand
			case Throttled:
				// Contract-throttled work never entered the system (see the
				// per-request path).
			default:
				tr.offered += r.Demand
			}
		}
		batchBuf = batchBuf[:0]
	}

	// Per-round scratch, hoisted out of the loop: a serving run touches
	// these every round, and the engine is the inner loop of the serve
	// bench, so round boundaries should not allocate.
	routedWork := make([]float64, cfg.N)
	costs := make([]float64, cfg.N)
	funcs := make([]costfn.Func, cfg.N)

	for t := 0; t < cfg.Rounds; t++ {
		roundEnd := float64(t+1) * cfg.RoundDur
		for i := range gamma {
			gamma[i] = speeds[i].Next()
		}
		if gs != nil {
			gs.roundStart()
		}
		backlogStart := d.Backlog()
		for i := range routedWork {
			routedWork[i] = 0
		}
		for k := range trs {
			trs[k].offered = 0
		}

		for {
			// Earliest completion across busy workers.
			cw, ct := -1, math.Inf(1)
			for i, rem := range remaining {
				if rem > 0 {
					if tc := now + rem/gamma[i]; tc < ct {
						cw, ct = i, tc
					}
				}
			}
			// Next admission attempt across tenants (a blocked request
			// stalls only its own tenant's source); ties break to the
			// lowest tenant index.
			ak, at := -1, math.Inf(1)
			for k := range trs {
				if !trs[k].blocked && trs[k].next.Arrival < at {
					ak, at = k, trs[k].next.Arrival
				}
			}
			switch {
			case ct <= at && ct <= roundEnd:
				if len(batchBuf) > 0 {
					// A completion is next: flush the buffered arrivals first
					// (their admission instant is the current virtual time, at
					// or before ct) and re-evaluate — a flush can start service
					// on an idle worker and move the earliest completion.
					flush(routedWork)
					continue
				}
				advance(ct)
				remaining[cw] = 0
				r, _ := d.Complete(cw, ct)
				lat := ct - r.Arrival
				if gs != nil {
					lat = gs.onComplete(cw, lat)
				}
				reqLat = append(reqLat, lat)
				if multiTenant {
					rt := &trs[0]
					if r.Tenant > 0 && r.Tenant < len(trs) {
						rt = &trs[r.Tenant]
					}
					rt.reqLat = append(rt.reqLat, lat)
				}
				if h, ok := d.Head(cw); ok {
					remaining[cw] = h.Demand
				}
				for k := range trs {
					if trs[k].blocked && admit(trs[k].pending, routedWork).Outcome != Blocked {
						trs[k].blocked = false
					}
				}
				continue
			case at < roundEnd:
				advance(at)
				tr := &trs[ak]
				r := tr.next
				tr.next = tr.gen.Next()
				seq++
				r.ID = seq
				r.Tenant = ak
				if batch > 1 {
					batchBuf = append(batchBuf, r)
					if len(batchBuf) >= batch {
						flush(routedWork)
					}
					continue
				}
				switch admit(r, routedWork).Outcome {
				case Blocked:
					tr.offered += r.Demand
					tr.pending, tr.blocked = r, true
				case Throttled:
					// Contract-throttled work never entered the system:
					// excluding it from the tenant's offered work keeps its
					// cost model (and so its routing) tracking the admitted
					// load, not the spike — the fed-back l_{i,t} only ever
					// reflects admitted work anyway.
				default:
					tr.offered += r.Demand
				}
				continue
			}
			if len(batchBuf) > 0 {
				// Round end with a partial batch: flush before closing the
				// round — a flush can start service before roundEnd, so
				// re-evaluate for completions still inside the round.
				flush(routedWork)
				continue
			}
			break
		}
		advance(roundEnd)

		// The round's observed local cost l_{i,t}: the time worker i needs
		// to drain everything it was responsible for this round (backlog
		// carried in plus work routed to it) at this round's speed.
		worst := 0.0
		for i := range costs {
			costs[i] = (backlogStart[i] + routedWork[i]) / gamma[i]
			if costs[i] > worst {
				worst = costs[i]
			}
		}
		maxLat = append(maxLat, worst)
		if cfg.observeRound != nil {
			cfg.observeRound(t, costs)
		}

		// The cost signal fed to the closed loop: the raw drain latencies,
		// or — under penalized geo serving — the effective cost
		// l_{i,t} + RTT_{i,t}, so the controllers retune on the combined
		// compute+network signal (roundEnd also settles the round's regret
		// accounting against the clairvoyant penalized optimum).
		feed := costs
		if gs != nil {
			eff, err := gs.roundEnd(costs, routedWork, gamma, trs)
			if err != nil {
				return nil, fmt.Errorf("dispatch: round %d geo accounting: %w", t+1, err)
			}
			if !cfg.GeoBlind {
				feed = eff
			}
		}

		if cfg.Policy == PolicyDOLBIE || cfg.Policy == PolicyDGD {
			for k := range trs {
				tr := &trs[k]
				x := tr.ctl.Assignment()
				// Fit an affine cost model through the observation: a worker
				// holding share x of the tenant's offered work W_k drains its
				// slice in about (backlog + x*W_k)/gamma seconds, so slope =
				// W_k/gamma and the intercept anchors the fit at the realized
				// point, f_i(x_i) = l_{i,t} (plus the RTT penalty under geo
				// serving, which lands in the intercept: network time is
				// share-independent). Negative intercepts (backlog dominated
				// by spill or another tenant's routing) clamp to zero; the
				// controllers' own guards absorb the slack.
				for i := range funcs {
					slope := tr.offered / gamma[i]
					if slope <= 0 {
						slope = 1e-9 // idle round: keep the model increasing
					}
					intercept := feed[i] - slope*x[i]
					if intercept < 0 {
						intercept = 0
					}
					funcs[i] = costfn.Affine{Slope: slope, Intercept: intercept}
				}
				if err := tr.ctl.Update(core.Observation{Costs: feed, Funcs: funcs}); err != nil {
					return nil, fmt.Errorf("dispatch: round %d tenant %q retune: %w", t+1, tr.cfg.Name, err)
				}
				if err := d.SetTenantWeights(k, tr.ctl.Assignment()); err != nil {
					return nil, fmt.Errorf("dispatch: round %d tenant %q weights: %w", t+1, tr.cfg.Name, err)
				}
				retunes++
				tr.retunes++
			}
		}
	}

	tot := d.Totals()
	res := &ServeResult{
		Policy:    cfg.Policy.String(),
		N:         cfg.N,
		Rounds:    cfg.Rounds,
		QueueCap:  cfg.QueueCap,
		Shards:    Config{Shards: cfg.Shards}.shardCount(),
		Seed:      cfg.Seed,
		Shed:      cfg.Shed.String(),
		Arrivals:  tot.Arrivals,
		Completed: tot.Completed,
		ShedCount: tot.Shed,
		Spilled:   tot.Spilled,
		Blocked:   tot.Blocked,
		Retunes:   retunes,
	}
	if batch > 1 {
		res.BatchSize = batch
	}
	if tot.Arrivals > 0 {
		res.ShedRate = float64(tot.Shed) / float64(tot.Arrivals)
	}
	res.MaxWorkerLatencyP99, _ = stats.Percentile(maxLat, 99)
	res.MaxWorkerLatencyMean = stats.Mean(maxLat)
	if len(reqLat) > 0 {
		res.RequestLatencyP50, _ = stats.Percentile(reqLat, 50)
		res.RequestLatencyP99, _ = stats.Percentile(reqLat, 99)
	}
	switch cfg.Policy {
	case PolicyDOLBIE, PolicyDGD:
		res.BytesPerRound = float64(len(trs) * (8*cfg.N + 12))
	case PolicyJSQ:
		res.BytesPerRound = float64(4 * cfg.N)
	}
	if gs != nil {
		res.Geo = gs.result(cfg)
	}
	if multiTenant {
		ttot := d.TenantTotals()
		res.Tenants = make([]TenantServeResult, len(trs))
		for k := range trs {
			tr := &trs[k]
			tsr := TenantServeResult{
				Name:      ttot[k].Name,
				Priority:  tr.cfg.Priority.String(),
				Objective: tr.cfg.Objective.String(),
				Rate:      tr.cfg.Rate,
				RateLimit: tr.cfg.RateLimit,
				Arrivals:  ttot[k].Arrivals,
				Completed: ttot[k].Completed,
				Routed:    ttot[k].Routed,
				ShedCount: ttot[k].Shed,
				Throttled: ttot[k].Throttled,
				Spilled:   ttot[k].Spilled,
				Blocked:   ttot[k].Blocked,
				Retunes:   tr.retunes,
			}
			if tsr.Arrivals > 0 {
				tsr.ShedRate = float64(tsr.ShedCount+tsr.Throttled) / float64(tsr.Arrivals)
			}
			if len(tr.reqLat) > 0 {
				tsr.RequestLatencyP50, _ = stats.Percentile(tr.reqLat, 50)
				tsr.RequestLatencyP99, _ = stats.Percentile(tr.reqLat, 99)
			}
			res.Tenants[k] = tsr
		}
	}
	return res, nil
}

// RunComparison runs the same seeded traffic and speed realization
// under all three control policies (dolbie, wrr, jsq) and returns the
// results in that order. cfg.Policy is ignored.
func RunComparison(cfg ServeConfig) ([]*ServeResult, error) {
	out := make([]*ServeResult, 0, 3)
	for _, p := range []ControlPolicy{PolicyDOLBIE, PolicyWRR, PolicyJSQ} {
		c := cfg
		c.Policy = p
		c.Metrics = nil                                         // one shared registry would mix the three runs
		c.Tenants = append([]TenantConfig(nil), cfg.Tenants...) // never alias the caller's slice
		r, err := Serve(c)
		if err != nil {
			return nil, fmt.Errorf("dispatch: %s run: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}
