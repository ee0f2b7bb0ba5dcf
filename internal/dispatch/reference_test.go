package dispatch

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// ingestResponse is the JSON body the ingest handler returns for every
// admission attempt. The handler renders it with verdictEncoder rather
// than encoding/json; TestIngestEncodingMatchesEncodingJSON pins the two
// byte streams to each other through refEncodeVerdict.
type ingestResponse struct {
	ID      int64  `json:"id"`
	Outcome string `json:"outcome"`
	Worker  int    `json:"worker"`
}

// refEncodeVerdict serializes an admission verdict the way the
// pre-shard ingest path did: a fresh reflective JSON encoder per
// request. verdictEncoder must produce byte-identical output.
func refEncodeVerdict(w io.Writer, id int64, outcome string, worker int) {
	_ = json.NewEncoder(w).Encode(ingestResponse{ID: id, Outcome: outcome, Worker: worker})
}

// refDispatcher is the pre-shard, single-lock admission path, kept in
// the tests as the executable specification of the dispatcher's
// semantics. Every admission — counter updates, rate-contract check,
// smooth-WRR pick, queue push, and instrument updates — happens inside
// one global critical section, which makes its behaviour trivially
// sequential: the sharded Dispatcher configured with Shards=1 must
// match it bit for bit on any trace (asserted by the equivalence
// tests, which also run the serving engine over it through the
// dataPlane seam). It mirrors the tenancy model too: per-tenant WRR
// cursors, priority-class admission thresholds, and token-bucket rate
// contracts.
type refDispatcher struct {
	cfg     Config
	tenants []TenantConfig
	inst    *dispatcherInstruments

	mu      sync.Mutex
	queues  []*queue
	weights [][]float64 // per-tenant routing weights
	wrr     [][]float64 // per-tenant smooth-WRR accumulators
	limits  []int       // per-tenant admission depth thresholds
	rates   []float64   // per-tenant rate contracts (0 disables)
	burst   []float64   // per-tenant bucket capacity
	tokens  []float64   // per-tenant token balances
	tlast   []float64   // per-tenant last refill times
	totals  Totals
	ttotals []TenantTotals
}

// newRefDispatcher constructs the reference dispatcher with uniform
// initial weights for every tenant, mirroring New.
func newRefDispatcher(cfg Config) (*refDispatcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tenants := cfg.resolvedTenants()
	nt := len(tenants)
	var names []string
	if len(cfg.Tenants) > 0 { // anonymous single-stream stays label-free
		for _, t := range tenants {
			names = append(names, t.Name)
		}
	}
	d := &refDispatcher{
		cfg:     cfg,
		tenants: tenants,
		inst:    newDispatcherInstruments(cfg.Metrics, cfg.N, 0, names),
		queues:  make([]*queue, cfg.N),
		weights: make([][]float64, nt),
		wrr:     make([][]float64, nt),
		limits:  make([]int, nt),
		rates:   make([]float64, nt),
		burst:   make([]float64, nt),
		tokens:  make([]float64, nt),
		tlast:   make([]float64, nt),
		ttotals: make([]TenantTotals, nt),
	}
	d.totals.Routed = make([]int64, cfg.N)
	for k, t := range tenants {
		d.weights[k] = make([]float64, cfg.N)
		d.wrr[k] = make([]float64, cfg.N)
		for w := range d.weights[k] {
			d.weights[k][w] = 1 / float64(cfg.N)
		}
		d.limits[k] = t.Priority.queueLimit(cfg.QueueCap)
		if t.RateLimit > 0 {
			d.rates[k] = t.RateLimit
			d.burst[k] = math.Max(1, t.RateLimit)
			d.tokens[k] = d.burst[k] // buckets start full
		}
		d.ttotals[k].Name = t.Name
	}
	heads := make([]atomic.Int64, cfg.N) // head keys are unused pre-shard, but queues require slots
	for i := range d.queues {
		d.queues[i] = newQueue(cfg.QueueCap, &heads[i])
	}
	return d, nil
}

// N returns the number of workers.
func (d *refDispatcher) N() int { return d.cfg.N }

// tenantIndex folds a request's tenant field into the configured range,
// mirroring Dispatcher.tenantIndex.
func (d *refDispatcher) tenantIndex(k int) int {
	if k < 0 || k >= len(d.tenants) {
		return 0
	}
	return k
}

// SetWeights installs a new routing weight vector for tenant 0.
func (d *refDispatcher) SetWeights(w []float64) error { return d.SetTenantWeights(0, w) }

// SetTenantWeights installs tenant k's routing weight vector.
func (d *refDispatcher) SetTenantWeights(k int, w []float64) error {
	if k < 0 || k >= len(d.tenants) {
		return fmt.Errorf("dispatch: tenant %d out of range [0, %d)", k, len(d.tenants))
	}
	if err := validateWeights(w, d.cfg.N); err != nil {
		return err
	}
	d.mu.Lock()
	copy(d.weights[k], w)
	if d.inst != nil {
		d.inst.retunes.Inc()
	}
	d.mu.Unlock()
	return nil
}

// Weights returns a copy of tenant 0's current routing weights.
func (d *refDispatcher) Weights() []float64 { return d.TenantWeights(0) }

// TenantWeights returns a copy of tenant k's current routing weights
// (nil when k is out of range).
func (d *refDispatcher) TenantWeights(k int) []float64 {
	if k < 0 || k >= len(d.tenants) {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.weights[k]...)
}

// Submit routes one request under the global mutex.
func (d *refDispatcher) Submit(r Request) Verdict {
	k := d.tenantIndex(r.Tenant)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.totals.Arrivals++
	d.ttotals[k].Arrivals++
	if d.inst != nil {
		d.inst.arrivals.Inc()
		if d.inst.tenantArrByT != nil {
			d.inst.tenantArrByT[k].Inc()
		}
	}
	if rate := d.rates[k]; rate > 0 {
		if dt := r.Arrival - d.tlast[k]; dt > 0 {
			d.tokens[k] = math.Min(d.burst[k], d.tokens[k]+dt*rate)
			d.tlast[k] = r.Arrival
		}
		if d.tokens[k] < 1 {
			d.ttotals[k].Throttled++
			if d.inst != nil {
				d.inst.shedThrottled.Inc()
				d.inst.tenantShedByT[k].Inc()
			}
			return Verdict{Outcome: Throttled, Worker: -1}
		}
		d.tokens[k]--
	}
	target := d.pickLocked(k)
	limit := d.limits[k]
	v := Verdict{Outcome: Routed, Worker: target}
	switch {
	case d.queues[target].len() < limit:
		// Fast path: the routed target is below the tenant's admission
		// threshold.
	case d.tenants[k].Shed == ShedBlock:
		d.totals.Blocked++
		d.ttotals[k].Blocked++
		if d.inst != nil {
			d.inst.blocked.Inc()
			if d.inst.tenantBlockedByT != nil {
				d.inst.tenantBlockedByT[k].Inc()
			}
		}
		return Verdict{Outcome: Blocked, Worker: -1}
	case d.tenants[k].Shed == ShedSpill:
		alt := d.leastLoadedWithSpaceLocked(limit)
		if alt < 0 {
			d.totals.Shed++
			d.ttotals[k].Shed++
			if d.inst != nil {
				d.inst.shedExhausted.Inc()
				if d.inst.tenantShedByT != nil {
					d.inst.tenantShedByT[k].Inc()
				}
			}
			return Verdict{Outcome: Shed, Worker: -1}
		}
		d.totals.Spilled++
		d.ttotals[k].Spilled++
		if d.inst != nil {
			d.inst.spilled.Inc()
		}
		v = Verdict{Outcome: Spilled, Worker: alt}
	default: // ShedReject
		d.totals.Shed++
		d.ttotals[k].Shed++
		if d.inst != nil {
			d.inst.shedReject.Inc()
			if d.inst.tenantShedByT != nil {
				d.inst.tenantShedByT[k].Inc()
			}
		}
		return Verdict{Outcome: Shed, Worker: -1}
	}
	d.queues[v.Worker].push(r)
	d.totals.Routed[v.Worker]++
	d.ttotals[k].Routed++
	if d.inst != nil {
		d.inst.routedByW[v.Worker].Inc()
		d.inst.depthByW[v.Worker].Set(float64(d.queues[v.Worker].len()))
		if d.inst.tenantRoutedByT != nil {
			d.inst.tenantRoutedByT[k].Inc()
		}
	}
	return v
}

// pickLocked selects the routed target for tenant k under d.mu: smooth
// weighted round-robin over the tenant's own weights and cursor, or
// shortest queue under RouteJSQ.
func (d *refDispatcher) pickLocked(k int) int {
	if d.cfg.Route == RouteJSQ {
		best := 0
		for i := 1; i < len(d.queues); i++ {
			if d.queues[i].len() < d.queues[best].len() {
				best = i
			}
		}
		return best
	}
	var total float64
	best := -1
	weights, wrr := d.weights[k], d.wrr[k]
	for i, w := range weights {
		wrr[i] += w
		total += w
		if best == -1 || wrr[i] > wrr[best] {
			best = i
		}
	}
	wrr[best] -= total
	return best
}

// leastLoadedWithSpaceLocked returns the worker with the fewest queued
// requests among those below the tenant's admission threshold, or -1
// when every queue is at the threshold. Ties break to the lowest index.
func (d *refDispatcher) leastLoadedWithSpaceLocked(limit int) int {
	best := -1
	for i, q := range d.queues {
		if q.len() >= limit {
			continue
		}
		if best == -1 || q.len() < d.queues[best].len() {
			best = i
		}
	}
	return best
}

// Head returns the oldest request on the worker's queue without
// removing it.
func (d *refDispatcher) Head(worker int) (Request, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if worker < 0 || worker >= d.cfg.N {
		return Request{}, false
	}
	return d.queues[worker].peek()
}

// Complete pops the worker's in-service head and records its
// completion at time now.
func (d *refDispatcher) Complete(worker int, now float64) (Request, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if worker < 0 || worker >= d.cfg.N {
		return Request{}, false
	}
	r, ok := d.queues[worker].pop()
	if !ok {
		return Request{}, false
	}
	d.totals.Completed++
	k := d.tenantIndex(r.Tenant)
	d.ttotals[k].Completed++
	if d.inst != nil {
		d.inst.depthByW[worker].Set(float64(d.queues[worker].len()))
		d.inst.latency.Observe(now - r.Arrival)
		if d.inst.tenantCompletedByT != nil {
			d.inst.tenantCompletedByT[k].Inc()
		}
	}
	return r, true
}

// Depths returns the current queue depth of every worker.
func (d *refDispatcher) Depths() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]int, d.cfg.N)
	for i, q := range d.queues {
		out[i] = q.len()
	}
	return out
}

// Backlog returns every worker's queued work in demand units.
func (d *refDispatcher) Backlog() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]float64, d.cfg.N)
	for i, q := range d.queues {
		out[i] = q.work
	}
	return out
}

// Totals returns a consistent snapshot of the dispatcher's counters.
// Shed includes rate-contract throttles, mirroring Dispatcher.Totals.
func (d *refDispatcher) Totals() Totals {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.totals
	t.Routed = append([]int64(nil), d.totals.Routed...)
	for k := range d.ttotals {
		t.Shed += d.ttotals[k].Throttled
	}
	return t
}

// TenantTotals returns a consistent per-tenant snapshot of the
// dispatcher's counters.
func (d *refDispatcher) TenantTotals() []TenantTotals {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]TenantTotals(nil), d.ttotals...)
}
