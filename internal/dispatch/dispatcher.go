package dispatch

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"dolbie/internal/metrics"
)

// Config parameterizes a Dispatcher.
type Config struct {
	// N is the number of workers (queues).
	N int
	// QueueCap bounds every worker's FIFO queue across all shards (the
	// in-service request counts against the bound). It is split across
	// the admission shards, so it must be at least Shards.
	QueueCap int
	// Shards is the number of admission shards. Each shard owns its own
	// smooth-WRR cursor, its own slice of every worker's queue capacity,
	// and its own counters, so admissions on different shards never
	// contend. 0 defaults to 1; Shards=1 reproduces the single-lock
	// admission semantics bit for bit.
	Shards int
	// BatchSize caps how many requests a Submitter admits per shard
	// critical section: one lock acquire, up to BatchSize smooth-WRR
	// steps, one depth commit. 0 or 1 admits one request per critical
	// section. Submit and SubmitBatch run the same admission body, and
	// Submit admits one request per call regardless of this knob.
	BatchSize int
	// Shed selects the backpressure behaviour when the routed target's
	// queue is full.
	Shed ShedPolicy
	// Route selects the routing policy. RouteWeighted starts from
	// uniform weights; drive it with SetWeights to close the DOLBIE
	// loop.
	Route RoutePolicy
	// Tenants configures multi-tenant admission: each tenant gets its
	// own smooth-WRR cursor per shard (retuned via SetTenantWeights),
	// its own shed policy and priority-class admission threshold, and an
	// optional admission rate contract. Empty runs one anonymous gold
	// tenant with the Config-level Shed policy — the single-stream path
	// is exactly the one-tenant special case of the same code, and no
	// per-tenant metric series are exported.
	Tenants []TenantConfig
	// Metrics instruments the dispatcher with the dolbie_dispatch_*
	// family; nil disables instrumentation. The hot path never touches
	// the registry: series are refreshed to a consistent snapshot at
	// scrape time via the registry's collect hook.
	Metrics *metrics.Registry
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("dispatch: N = %d must be positive", c.N)
	}
	if c.QueueCap <= 0 {
		return fmt.Errorf("dispatch: QueueCap = %d must be positive", c.QueueCap)
	}
	if c.Shards < 0 {
		return fmt.Errorf("dispatch: Shards = %d must be non-negative", c.Shards)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("dispatch: BatchSize = %d must be non-negative", c.BatchSize)
	}
	if s := c.shardCount(); c.QueueCap < s {
		return fmt.Errorf("dispatch: QueueCap = %d below shard count %d (each shard needs at least one slot per worker)", c.QueueCap, s)
	}
	switch c.Shed {
	case ShedReject, ShedBlock, ShedSpill:
	default:
		return fmt.Errorf("dispatch: unknown shed policy %d", int(c.Shed))
	}
	switch c.Route {
	case RouteWeighted, RouteJSQ:
	default:
		return fmt.Errorf("dispatch: unknown route policy %d", int(c.Route))
	}
	for i, t := range c.Tenants {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("dispatch: tenant %d: %w", i, err)
		}
	}
	return nil
}

// resolvedTenants returns the effective tenant list: a copy of
// c.Tenants with empty names filled in, or the single anonymous gold
// tenant carrying the Config-level shed policy when none are
// configured. The copy means the dispatcher never aliases (or mutates)
// the caller's backing array.
func (c Config) resolvedTenants() []TenantConfig {
	if len(c.Tenants) == 0 {
		return []TenantConfig{{Name: "default", Priority: PriorityGold, Shed: c.Shed}}
	}
	out := make([]TenantConfig, len(c.Tenants))
	copy(out, c.Tenants)
	for i := range out {
		if out[i].Name == "" {
			out[i].Name = fmt.Sprintf("tenant%d", i)
		}
	}
	return out
}

// shardCount resolves the effective shard count (0 defaults to 1).
func (c Config) shardCount() int {
	if c.Shards <= 0 {
		return 1
	}
	return c.Shards
}

// batchSize resolves the effective admission batch size (0 defaults
// to 1).
func (c Config) batchSize() int {
	if c.BatchSize <= 0 {
		return 1
	}
	return c.BatchSize
}

// shardCapSlice is shard si's slice of one worker's total queue
// capacity: total/ns slots plus one of the total%ns remainder slots, so
// the per-worker slices sum exactly to total. New and SetQueueCap must
// agree on this split, which is why it is a function and not two loops.
func shardCapSlice(total, si, ns int) int {
	capS := total / ns
	if si < total%ns {
		capS++
	}
	return capS
}

// Totals is a consistent snapshot of the dispatcher's counters. The
// conservation law Arrivals == sum(Routed) + Shed + Blocked holds for
// every snapshot (spilled requests are counted in Routed on the queue
// they landed on): each admission commits atomically inside one shard's
// critical section, and Totals stops the world across all shards.
type Totals struct {
	// Arrivals counts every Submit call.
	Arrivals int64
	// Routed counts enqueued requests per worker.
	Routed []int64
	// Shed counts dropped requests.
	Shed int64
	// Spilled counts requests rerouted off their weighted target.
	Spilled int64
	// Blocked counts refused admission attempts (ShedBlock).
	Blocked int64
	// Completed counts requests fully served.
	Completed int64
}

// shard is one admission shard: a smooth-WRR cursor, one bounded queue
// slice per worker, and plain counters, all guarded by a single short
// mutex. A whole admission (arrival count, routing pick, queue push or
// shed/block, outcome count) commits inside one critical section, so
// every per-shard snapshot satisfies the conservation law exactly — the
// property the scrape-time aggregation and the stop-the-world Totals
// both build on.
type shard struct {
	mu       sync.Mutex
	queues   []*queue    // one bounded slice of each worker's capacity
	weights  [][]float64 // shard-local copy per tenant, swapped at retune epochs
	wrrTotal []float64   // per-tenant sum of weights, in index order
	wrr      [][]float64 // smooth weighted round-robin accumulators per tenant
	limits   []int       // per-tenant priority-class admission depth threshold
	tokens   []float64   // per-tenant rate-contract tokens (see admitRunLocked)
	tlast    []float64   // per-tenant last token refill time

	// Counters, guarded by mu. Plain (non-atomic) on purpose: they are
	// only read under mu (scrape-time collection and stop-the-world
	// snapshots), which keeps the admission critical section as cheap as
	// possible. The aggregate arrival, throttle, spill, block and
	// completion counts are sums of the per-tenant slots below; only the
	// per-worker routed counts and the shed reasons are kept apart.
	routed        []int64
	shedReject    int64
	shedExhausted int64

	// Batched-admission tally: batches counts SubmitBatch critical
	// sections committed on this shard, batchAdmitted the requests they
	// carried. Submit (per-request admission) touches neither, so the
	// ratio batchAdmitted/batches is the realized batch width.
	batches       int64
	batchAdmitted int64

	// Per-tenant counters, one slot per tenant. Every admission updates
	// its tenant's slots inside the shard's critical section, so both the
	// per-tenant and the aggregate conservation laws hold at every
	// snapshot.
	tArrivals  []int64
	tRouted    []int64
	tShed      []int64
	tThrottled []int64
	tSpilled   []int64
	tBlocked   []int64
	tCompleted []int64

	// Completion-latency tally, binned per shard on the layout of
	// latencyBuckets (latCounts[len] would be +Inf; it is kept in latInf)
	// and merged into the registry histogram at scrape time. nil when the
	// dispatcher is uninstrumented.
	latCounts []int64
	latInf    int64
	latSum    float64
	latCount  int64
}

// observeLatencyLocked bins one completion latency into the shard's
// local tally under s.mu — the instrumented completion path's only
// metrics cost (the registry histogram and its mutex are touched once
// per scrape, not per completion).
func (s *shard) observeLatencyLocked(v float64) {
	// Inlined sort.SearchFloat64s (first bucket >= v): the closure-based
	// generic search costs more than the four compares it hides, and this
	// runs once per completion.
	lo, hi := 0, len(latencyBuckets)
	for lo < hi {
		mid := (lo + hi) / 2
		if latencyBuckets[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.latCounts) {
		s.latCounts[lo]++
	} else {
		s.latInf++
	}
	s.latSum += v
	s.latCount++
}

// leastLoadedWithSpaceLocked returns the worker with the fewest queued
// requests on this shard among those below the tenant's admission
// depth threshold, or -1 when every shard queue is at the threshold.
// Ties break to the lowest index.
func (s *shard) leastLoadedWithSpaceLocked(limit int) int {
	best := -1
	for i, q := range s.queues {
		if q.len() >= limit {
			continue
		}
		if best == -1 || q.len() < s.queues[best].len() {
			best = i
		}
	}
	return best
}

// paddedMutex is a sync.Mutex padded to a cache line, so the completion
// locks of neighbouring workers never share one.
type paddedMutex struct {
	sync.Mutex
	_ [56]byte
}

// Dispatcher routes requests onto bounded per-worker FIFO queues
// according to the configured policy and the current weight vector. It
// is safe for concurrent use and its admission path is sharded: each
// request hashes to one of Config.Shards shards and commits entirely
// inside that shard's short critical section, so concurrent Submit
// calls on different shards never contend. Cross-shard coordination is
// either a per-worker completion lock (completion discovers the oldest
// head via atomic per-queue head keys) or a brief stop-the-world epoch
// across all shards (SetWeights, Totals, Depths, Backlog — the
// round-boundary repartition operations).
type Dispatcher struct {
	cfg     Config
	tenants []TenantConfig // resolved: at least one entry, names filled
	// rateShare is each tenant's admission rate contract split evenly
	// across the shards (requests per second per shard); 0 disables the
	// tenant's token bucket. burst is the per-shard bucket capacity (one
	// second of contract, at least one request).
	rateShare []float64
	burst     []float64
	shards    []*shard
	// heads is the flat array of atomic head keys, one slot per
	// (worker, shard) pair laid out with a worker's shards contiguous
	// (index worker*len(shards)+shard), so the lock-free oldest-head scan
	// in Complete reads consecutive memory instead of chasing a pointer
	// into every shard.
	heads []atomic.Int64
	// popLocks serializes completions and head reads per worker: holding
	// worker w's lock makes the caller the worker's only popper, which is
	// what turns the optimistic oldest-head scan in pop and Head into a
	// guaranteed single pass (concurrent pushes can only flip a shard
	// head from empty to a newer request, never move or remove the head
	// the scan chose). One lock per worker — completions of different
	// workers never wait on each other.
	popLocks []paddedMutex
	inst     *dispatcherInstruments
	col      *collector

	// nextHome assigns home shards to Submitters round-robin, so a set of
	// submitter goroutines spreads sticky affinity across every shard.
	nextHome atomic.Int64
	// affinityHits / affinityMisses count SubmitBatch shard acquisitions
	// that landed on (hit) or fell away from (miss) the submitter's home
	// shard — the contention signal behind the sticky-shard design.
	affinityHits   atomic.Int64
	affinityMisses atomic.Int64

	// depth tracks the total queued requests across all shards (updated
	// inside the shard critical sections, read lock-free), and queueCap
	// the current per-worker capacity — the two inputs of the Retry-After
	// backpressure hint, which must not cost a stop-the-world scan on the
	// reject path of an overload storm.
	depth    atomic.Int64
	queueCap atomic.Int64
	// draining gates admission during a graceful drain: every Submit is
	// refused as Blocked (counted against the conservation law like any
	// other refusal) while queued work keeps completing.
	draining atomic.Bool
}

// New constructs a Dispatcher with uniform initial weights for every
// tenant.
func New(cfg Config) (*Dispatcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ns := cfg.shardCount()
	tenants := cfg.resolvedTenants()
	nt := len(tenants)
	d := &Dispatcher{
		cfg:       cfg,
		tenants:   tenants,
		rateShare: make([]float64, nt),
		burst:     make([]float64, nt),
		shards:    make([]*shard, ns),
		heads:     make([]atomic.Int64, cfg.N*ns),
		popLocks:  make([]paddedMutex, cfg.N),
	}
	for k, t := range tenants {
		if t.RateLimit > 0 {
			d.rateShare[k] = t.RateLimit / float64(ns)
			d.burst[k] = math.Max(1, d.rateShare[k])
		}
	}
	d.queueCap.Store(int64(cfg.QueueCap))
	// Split each worker's capacity across the shards: shard si gets
	// QueueCap/ns slots plus one of the remainder slots, so per-worker
	// capacity sums exactly to QueueCap (no overshoot, no loss).
	for si := range d.shards {
		capS := shardCapSlice(cfg.QueueCap, si, ns)
		s := &shard{
			queues:     make([]*queue, cfg.N),
			weights:    make([][]float64, nt),
			wrrTotal:   make([]float64, nt),
			wrr:        make([][]float64, nt),
			limits:     make([]int, nt),
			tokens:     make([]float64, nt),
			tlast:      make([]float64, nt),
			routed:     make([]int64, cfg.N),
			tArrivals:  make([]int64, nt),
			tRouted:    make([]int64, nt),
			tShed:      make([]int64, nt),
			tThrottled: make([]int64, nt),
			tSpilled:   make([]int64, nt),
			tBlocked:   make([]int64, nt),
			tCompleted: make([]int64, nt),
		}
		for k, t := range tenants {
			s.weights[k] = make([]float64, cfg.N)
			s.wrr[k] = make([]float64, cfg.N)
			for w := range s.weights[k] {
				s.weights[k][w] = 1 / float64(cfg.N)
			}
			s.wrrTotal[k] = weightSum(s.weights[k])
			s.limits[k] = t.Priority.queueLimit(capS)
			s.tokens[k] = d.burst[k] // buckets start full
		}
		for w := range s.queues {
			s.queues[w] = newQueue(capS, &d.heads[w*ns+si])
		}
		d.shards[si] = s
	}
	if cfg.Metrics != nil {
		names := make([]string, 0, nt)
		if len(cfg.Tenants) > 0 { // anonymous single-stream stays label-free
			for _, t := range tenants {
				names = append(names, t.Name)
			}
		}
		d.inst = newDispatcherInstruments(cfg.Metrics, cfg.N, ns, names)
		d.inst.shards.Set(float64(ns))
		d.col = newCollector(cfg.N, ns, len(names))
		for _, s := range d.shards {
			s.latCounts = make([]int64, len(latencyBuckets))
		}
		cfg.Metrics.OnCollect(d.collect)
	}
	return d, nil
}

// N returns the number of workers.
func (d *Dispatcher) N() int { return d.cfg.N }

// Shards returns the effective number of admission shards.
func (d *Dispatcher) Shards() int { return len(d.shards) }

// TenantCount returns the number of tenants (1 for the anonymous
// single-stream configuration).
func (d *Dispatcher) TenantCount() int { return len(d.tenants) }

// tenantIndex folds a request's tenant field into the configured range;
// out-of-range values (including the zero value on single-tenant
// dispatchers) map to tenant 0.
func (d *Dispatcher) tenantIndex(k int) int {
	if k < 0 || k >= len(d.tenants) {
		return 0
	}
	return k
}

// shardFor hashes a request ID onto a shard. The mixer is
// splitmix64-style so sequential IDs (the generator, the HTTP ingest
// counter) spread uniformly instead of striding, and the hash maps to a
// shard index by fixed-point multiply (bits.Mul64 high word) rather
// than a modulo — an integer divide would cost more than the rest of
// the hash combined.
func (d *Dispatcher) shardFor(id int64) *shard {
	if len(d.shards) == 1 {
		return d.shards[0]
	}
	h := uint64(id)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	hi, _ := bits.Mul64(h, uint64(len(d.shards)))
	return d.shards[hi]
}

// lockAll begins a stop-the-world epoch: it acquires every shard mutex
// in index order (submitters hold at most one, so ordered acquisition
// cannot deadlock). While held, no admission or completion can move.
func (d *Dispatcher) lockAll() {
	for _, s := range d.shards {
		s.mu.Lock()
	}
}

// unlockAll ends the stop-the-world epoch.
func (d *Dispatcher) unlockAll() {
	for _, s := range d.shards {
		s.mu.Unlock()
	}
}

// validateWeights checks a routing weight vector for SetWeights.
func validateWeights(w []float64, n int) error {
	if len(w) != n {
		return fmt.Errorf("dispatch: got %d weights for %d workers", len(w), n)
	}
	var sum float64
	for i, v := range w {
		if v < 0 || v != v {
			return fmt.Errorf("dispatch: weight[%d] = %v must be non-negative", i, v)
		}
		sum += v
	}
	if sum <= 0 {
		return fmt.Errorf("dispatch: weights sum to %v, want > 0", sum)
	}
	return nil
}

// weightSum is the smooth-WRR total of a weight vector: the weights
// summed in index order, so the cached total has the bits the per-pick
// sum would have.
func weightSum(w []float64) float64 {
	var total float64
	for _, v := range w {
		total += v
	}
	return total
}

// SetWeights installs a new routing weight vector (DOLBIE's x_{t+1})
// for tenant 0 — the whole stream on a single-tenant dispatcher. See
// SetTenantWeights.
func (d *Dispatcher) SetWeights(w []float64) error { return d.SetTenantWeights(0, w) }

// SetTenantWeights installs tenant k's routing weight vector (its
// balancer's x_{t+1}) in one stop-the-world epoch across all shards, so
// every shard swaps to the new assignment at the same admission
// boundary. Weights must be non-negative with a positive sum; they need
// not be normalized. Each shard's smooth-WRR accumulators are preserved
// so routing stays deterministic across retunes.
func (d *Dispatcher) SetTenantWeights(k int, w []float64) error {
	if k < 0 || k >= len(d.tenants) {
		return fmt.Errorf("dispatch: tenant %d out of range [0, %d)", k, len(d.tenants))
	}
	if err := validateWeights(w, d.cfg.N); err != nil {
		return err
	}
	total := weightSum(w)
	d.lockAll()
	for _, s := range d.shards {
		copy(s.weights[k], w)
		s.wrrTotal[k] = total
	}
	d.unlockAll()
	if d.inst != nil {
		d.inst.retunes.Inc()
	}
	return nil
}

// Weights returns a copy of tenant 0's current routing weights — the
// whole stream on a single-tenant dispatcher. See TenantWeights.
func (d *Dispatcher) Weights() []float64 { return d.TenantWeights(0) }

// TenantWeights returns a copy of tenant k's current routing weights
// (nil when k is out of range).
func (d *Dispatcher) TenantWeights(k int) []float64 {
	if k < 0 || k >= len(d.tenants) {
		return nil
	}
	s := d.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.weights[k]...)
}

// SetQueueCap hot-reloads every worker's queue capacity in one
// stop-the-world epoch across all shards. Queued requests are never
// dropped: shrinking below a queue's current occupancy only refuses new
// admissions until it drains under the new limit. Per-tenant priority
// thresholds are re-derived from each shard's new capacity slice, so
// the strict gold/silver/bronze shed ordering is preserved across the
// reload. cap must be positive and at least the shard count (each shard
// slice needs one slot per worker).
func (d *Dispatcher) SetQueueCap(capacity int) error {
	ns := len(d.shards)
	if capacity <= 0 {
		return fmt.Errorf("dispatch: QueueCap = %d must be positive", capacity)
	}
	if capacity < ns {
		return fmt.Errorf("dispatch: QueueCap = %d below shard count %d (each shard needs at least one slot per worker)", capacity, ns)
	}
	d.lockAll()
	for si, s := range d.shards {
		capS := shardCapSlice(capacity, si, ns)
		for _, q := range s.queues {
			q.setCap(capS)
		}
		for k, t := range d.tenants {
			s.limits[k] = t.Priority.queueLimit(capS)
		}
	}
	d.cfg.QueueCap = capacity
	d.queueCap.Store(int64(capacity))
	d.unlockAll()
	return nil
}

// QueueCap returns the current per-worker queue capacity (hot-reloaded
// by SetQueueCap).
func (d *Dispatcher) QueueCap() int { return int(d.queueCap.Load()) }

// SetTenantShed hot-reloads tenant k's backpressure policy in one
// stop-the-world epoch across all shards, so every shard switches
// behaviour at the same admission boundary.
func (d *Dispatcher) SetTenantShed(k int, p ShedPolicy) error {
	if k < 0 || k >= len(d.tenants) {
		return fmt.Errorf("dispatch: tenant %d out of range [0, %d)", k, len(d.tenants))
	}
	if _, err := p.MarshalText(); err != nil {
		return err
	}
	d.lockAll()
	d.tenants[k].Shed = p
	d.unlockAll()
	return nil
}

// TenantShed returns tenant k's current backpressure policy (tenant 0
// is the whole stream on a single-tenant dispatcher).
func (d *Dispatcher) TenantShed(k int) (ShedPolicy, error) {
	if k < 0 || k >= len(d.tenants) {
		return 0, fmt.Errorf("dispatch: tenant %d out of range [0, %d)", k, len(d.tenants))
	}
	s := d.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	return d.tenants[k].Shed, nil
}

// SetDraining opens or closes the graceful-drain gate. While draining,
// every Submit is refused as Blocked (no accepted request is dropped,
// and the conservation law holds through the drain) while completions
// keep draining the queues; Depth reaching zero means the drain is
// done.
func (d *Dispatcher) SetDraining(on bool) { d.draining.Store(on) }

// Draining reports whether the admission gate is in graceful drain.
func (d *Dispatcher) Draining() bool { return d.draining.Load() }

// Depth returns the total number of queued requests across all workers
// and shards, read lock-free (exact at quiescence; during a storm it
// trails in-flight admissions by at most the submitter count).
func (d *Dispatcher) Depth() int64 { return d.depth.Load() }

// RetryAfterSeconds derives the backpressure hint the HTTP ingest
// returns in the Retry-After header for a refused admission, from the
// drain state, the refusal outcome (which reflects the active shed
// policy), and the current total queue depth:
//
//   - draining: a constant 5s — the instance is going away, the client
//     should re-resolve and land elsewhere;
//   - Blocked (ShedBlock): 1s — the very next completion frees a slot,
//     so retrying quickly against the same instance is correct;
//   - Throttled: 1s — rate-contract tokens refill continuously, so a
//     full second always buys headroom;
//   - Shed (ShedReject / spill-exhausted): 1–4s scaled linearly with
//     the queue-fill fraction, so a nearly-drained plane invites quick
//     retries while a saturated one pushes the herd back harder.
//
// The inputs are lock-free atomics: the hint must not cost a
// stop-the-world scan on the reject path of the very overload storm it
// is managing.
func (d *Dispatcher) RetryAfterSeconds(o Outcome) int {
	if d.draining.Load() {
		return 5
	}
	switch o {
	case Blocked, Throttled:
		return 1
	}
	total := d.queueCap.Load() * int64(d.cfg.N)
	if total <= 0 {
		return 1
	}
	fill := float64(d.depth.Load()) / float64(total)
	if fill > 1 {
		fill = 1
	}
	return 1 + int(3*fill)
}

// admitLocked admits every request of chunk, in order, under s.mu,
// appending one verdict per request to out and returning out plus the
// number of requests queued (the caller's depth commit). It splits the
// chunk into runs of consecutive same-tenant requests and admits each
// run through admitRunLocked.
//
// The drain gate is sampled once per call, not once per request: a
// concurrent SetDraining lands on a chunk boundary, which is one of the
// serializations per-request admission could equally have produced
// (the whole chunk shares one critical section either way).
func (d *Dispatcher) admitLocked(s *shard, chunk []Request, out []Verdict) ([]Verdict, int64) {
	base := len(out)
	out = slices.Grow(out, len(chunk))[:base+len(chunk)]
	vs := out[base:]
	draining := d.draining.Load()
	var queued int64
	for len(chunk) > 0 {
		// A single-tenant dispatcher folds every request to tenant 0, so
		// its whole chunk is one run.
		k, n := d.tenantIndex(chunk[0].Tenant), len(chunk)
		if len(d.tenants) > 1 {
			for n = 1; n < len(chunk) && d.tenantIndex(chunk[n].Tenant) == k; n++ {
			}
		}
		queued += d.admitRunLocked(s, k, chunk[:n], vs[:n], draining)
		chunk, vs = chunk[n:], vs[n:]
	}
	return out, queued
}

// admitRunLocked is the one admission body: it admits run, a run of
// tenant k's requests, under s.mu, writes request j's verdict to vs[j],
// and returns how many requests were queued. Submit passes a
// one-request run, SubmitBatch each tenant run of its chunk. What the
// run shares — the tenant's weights and WRR total, admission
// threshold, shed policy and rate contract — is read once; each
// request then passes the rate contract, the routing pick, the
// threshold check and the queue push. The pick is smooth weighted
// round-robin (the nginx algorithm — deterministic, drift-free, and
// spreads each worker's turns evenly) over the tenant's own weights
// and cursor, or the shard-local shortest queue under RouteJSQ; both
// are shard-local, so shards never read each other's state on the hot
// path. Every count commits inside the critical section, so every
// snapshot stays exact. draining is the drain gate, sampled by the
// caller.
func (d *Dispatcher) admitRunLocked(s *shard, k int, run []Request, vs []Verdict, draining bool) int64 {
	s.tArrivals[k] += int64(len(run))
	if draining {
		// Graceful drain: admission is refused without dropping anything
		// already accepted. Drain refusals count as Blocked, so both
		// conservation laws (aggregate and per-tenant) keep holding on
		// every snapshot taken through a drain.
		s.tBlocked[k] += int64(len(run))
		for j := range vs {
			vs[j] = Verdict{Outcome: Blocked, Worker: -1}
		}
		return 0
	}
	var (
		weights = s.weights[k]
		wrr     = s.wrr[k][:len(weights)]
		total   = s.wrrTotal[k] // invariant while s.mu is held: retunes stop the world
		queues  = s.queues
		limit   = s.limits[k]
		shed    = d.tenants[k].Shed
		jsq     = d.cfg.Route == RouteJSQ
		rate    = d.rateShare[k]
		queued  int64
	)
	for j, r := range run {
		if rate > 0 {
			// Token bucket on the tenant's admission rate contract: refill
			// from the arrival clock (monotone per shard; negative deltas
			// from cross-shard clock skew are ignored), spend one token per
			// admission, shed at the door when empty.
			if dt := r.Arrival - s.tlast[k]; dt > 0 {
				s.tokens[k] = math.Min(d.burst[k], s.tokens[k]+dt*rate)
				s.tlast[k] = r.Arrival
			}
			if s.tokens[k] < 1 {
				s.tThrottled[k]++
				vs[j] = Verdict{Outcome: Throttled, Worker: -1}
				continue
			}
			s.tokens[k]--
		}
		best := 0
		if jsq {
			for i := 1; i < len(queues); i++ {
				if queues[i].count < queues[best].count {
					best = i
				}
			}
		} else {
			bw := wrr[0] + weights[0]
			wrr[0] = bw
			for i := 1; i < len(weights); i++ {
				v := wrr[i] + weights[i]
				wrr[i] = v
				if v > bw {
					bw, best = v, i
				}
			}
			wrr[best] -= total
		}
		if queues[best].count < limit {
			// The routed target is below the tenant's admission threshold
			// on this shard (the full capacity slice for gold tenants).
			vs[j] = Verdict{Outcome: Routed, Worker: best}
		} else {
			switch shed {
			case ShedBlock:
				s.tBlocked[k]++
				vs[j] = Verdict{Outcome: Blocked, Worker: -1}
				continue
			case ShedSpill:
				alt := s.leastLoadedWithSpaceLocked(limit)
				if alt < 0 {
					s.shedExhausted++
					s.tShed[k]++
					vs[j] = Verdict{Outcome: Shed, Worker: -1}
					continue
				}
				s.tSpilled[k]++
				best = alt
				vs[j] = Verdict{Outcome: Spilled, Worker: alt}
			default: // ShedReject
				s.shedReject++
				s.tShed[k]++
				vs[j] = Verdict{Outcome: Shed, Worker: -1}
				continue
			}
		}
		queues[best].push(r)
		s.routed[best]++
		queued++
	}
	s.tRouted[k] += queued
	return queued
}

// Submit routes one request. The returned verdict reports where it
// landed (or why it did not); Blocked verdicts leave no trace in the
// queues and the caller is expected to resubmit after a completion.
// The whole admission — rate contract, priority threshold, routing
// pick, queue push, and every counter — commits inside one shard's
// critical section.
func (d *Dispatcher) Submit(r Request) Verdict {
	k := d.tenantIndex(r.Tenant)
	s := d.shardFor(r.ID)
	run := [1]Request{r}
	var v [1]Verdict
	s.mu.Lock()
	if d.admitRunLocked(s, k, run[:], v[:], d.draining.Load()) > 0 {
		d.depth.Add(1)
	}
	s.mu.Unlock()
	return v[0]
}

// oldestShard scans the worker's per-shard head keys lock-free and
// returns the shard index holding the smallest (oldest) head ID, or -1
// when every shard queue for the worker looked empty. The keys are
// contiguous in the flat head array, so the scan stays within one or
// two cache lines even at high shard counts.
func (d *Dispatcher) oldestShard(worker int) (int, int64) {
	ns := len(d.shards)
	keys := d.heads[worker*ns : worker*ns+ns]
	best, bestID := -1, int64(math.MaxInt64)
	for si := range keys {
		if id := keys[si].Load(); id < bestID {
			bestID, best = id, si
		}
	}
	return best, bestID
}

// Head returns the worker's in-service request: the oldest head (by
// request ID) across the worker's shard queues, without removing it.
// It holds the worker's completion lock for the read, so the head it
// scans cannot be popped out from under it — one optimistic pass
// always resolves, with no stop-the-world fallback.
func (d *Dispatcher) Head(worker int) (Request, bool) {
	if worker < 0 || worker >= d.cfg.N {
		return Request{}, false
	}
	pl := &d.popLocks[worker]
	pl.Lock()
	defer pl.Unlock()
	si, bestID := d.oldestShard(worker)
	if si < 0 {
		return Request{}, false
	}
	s := d.shards[si]
	s.mu.Lock()
	h, ok := s.queues[worker].peek()
	s.mu.Unlock()
	if !ok || h.ID != bestID {
		// Unreachable while the completion lock is held: concurrent
		// admissions can only flip a head key from empty to a value, never
		// move the head we chose, and the lock excludes every popper. Fail
		// closed rather than return a stale head if the invariant is ever
		// broken.
		return Request{}, false
	}
	return h, true
}

// Complete pops the worker's in-service head — the oldest head across
// the worker's shard queues — and records its completion at time now
// (virtual or wall seconds, matching the request arrivals). It returns
// the completed request. It is the n = 1 case of CompleteBatch.
func (d *Dispatcher) Complete(worker int, now float64) (Request, bool) {
	r, done := d.pop(worker, 1, now)
	return r, done == 1
}

// CompleteBatch pops up to n of the worker's in-service heads —
// oldest-first, exactly the sequence n Complete calls would pop — and
// records their completions at time now. It returns how many it popped
// (fewer than n when the worker's queues drain empty).
func (d *Dispatcher) CompleteBatch(worker, n int, now float64) int {
	_, done := d.pop(worker, n, now)
	return done
}

// pop is the one completion body: it pops up to n of the worker's
// in-service heads, oldest first, records their completions at time
// now, and returns the last request popped and how many were popped.
// The worker's completion lock is held once for the whole call, which
// makes the caller the worker's only popper: the lock-free scan of
// atomic head keys then picks the oldest shard in a single guaranteed
// pass (concurrent pushes can only turn an empty key into a newer
// request, never move the chosen head), and only that shard's mutex is
// taken. Consecutive pops that land on the same shard keep its mutex
// held (with a single shard every pop does), and the dispatcher depth
// commits once. Never more than one shard mutex is held at a time,
// preserving the lock-ordering freedom Submit and the stop-the-world
// epochs rely on, and a contended completion never stops the world:
// admissions on every shard and completions of every other worker keep
// flowing.
func (d *Dispatcher) pop(worker, n int, now float64) (Request, int) {
	if worker < 0 || worker >= d.cfg.N || n <= 0 {
		return Request{}, 0
	}
	pl := &d.popLocks[worker]
	pl.Lock()
	defer pl.Unlock()
	var (
		last Request
		done int
		s    *shard // the currently locked shard, nil when none
	)
	for done < n {
		si, _ := d.oldestShard(worker)
		if si < 0 {
			break
		}
		if next := d.shards[si]; next != s {
			if s != nil {
				s.mu.Unlock()
			}
			s = next
			s.mu.Lock()
		}
		r, ok := s.queues[worker].pop()
		if !ok {
			// Unreachable while the completion lock is held (a non-empty
			// scanned head cannot vanish); fail closed.
			break
		}
		s.tCompleted[d.tenantIndex(r.Tenant)]++
		if d.inst != nil {
			s.observeLatencyLocked(now - r.Arrival)
		}
		last = r
		done++
	}
	if s != nil {
		s.mu.Unlock()
	}
	if done > 0 {
		d.depth.Add(int64(-done))
	}
	return last, done
}

// Depths returns the current queue depth of every worker (summed over
// shards), collected in one stop-the-world epoch.
func (d *Dispatcher) Depths() []int {
	d.lockAll()
	defer d.unlockAll()
	out := make([]int, d.cfg.N)
	for _, s := range d.shards {
		for w, q := range s.queues {
			out[w] += q.len()
		}
	}
	return out
}

// Backlog returns every worker's queued work in demand units (including
// the in-service head), collected in one stop-the-world epoch.
func (d *Dispatcher) Backlog() []float64 {
	d.lockAll()
	defer d.unlockAll()
	out := make([]float64, d.cfg.N)
	for _, s := range d.shards {
		for w, q := range s.queues {
			out[w] += q.work
		}
	}
	return out
}

// Totals returns a consistent snapshot of the dispatcher's counters,
// collected in one stop-the-world epoch across all shards. Shed
// includes rate-contract throttles.
func (d *Dispatcher) Totals() Totals {
	d.lockAll()
	defer d.unlockAll()
	t := Totals{Routed: make([]int64, d.cfg.N)}
	for _, s := range d.shards {
		t.Shed += s.shedReject + s.shedExhausted
		for k := range d.tenants {
			t.Arrivals += s.tArrivals[k]
			t.Shed += s.tThrottled[k]
			t.Spilled += s.tSpilled[k]
			t.Blocked += s.tBlocked[k]
			t.Completed += s.tCompleted[k]
		}
		for w, r := range s.routed {
			t.Routed[w] += r
		}
	}
	return t
}

// TenantTotals returns a consistent per-tenant snapshot of the
// dispatcher's counters, collected in one stop-the-world epoch across
// all shards. The per-tenant conservation law Arrivals == Routed +
// Shed + Throttled + Blocked holds for every snapshot.
func (d *Dispatcher) TenantTotals() []TenantTotals {
	d.lockAll()
	defer d.unlockAll()
	out := make([]TenantTotals, len(d.tenants))
	for k, t := range d.tenants {
		out[k].Name = t.Name
	}
	for _, s := range d.shards {
		for k := range out {
			out[k].Arrivals += s.tArrivals[k]
			out[k].Routed += s.tRouted[k]
			out[k].Shed += s.tShed[k]
			out[k].Throttled += s.tThrottled[k]
			out[k].Spilled += s.tSpilled[k]
			out[k].Blocked += s.tBlocked[k]
			out[k].Completed += s.tCompleted[k]
		}
	}
	return out
}
