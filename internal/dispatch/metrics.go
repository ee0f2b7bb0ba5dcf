package dispatch

import (
	"strconv"
	"sync"

	"dolbie/internal/metrics"
)

// Metric names of the dolbie_dispatch_* family. The data plane is the
// first subsystem whose health is invisible in the algorithm-level
// families (a balancer can converge beautifully while the dispatcher
// sheds half the traffic), so it gets its own instruments; the alert
// guide lives in docs/OPERATIONS.md.
const (
	// MetricArrivals counts every request submitted to the dispatcher
	// (including blocked admission attempts).
	MetricArrivals = "dolbie_dispatch_arrivals_total"
	// MetricRouted counts requests enqueued per worker, labeled
	// {worker}; spilled requests count on the queue they landed on.
	MetricRouted = "dolbie_dispatch_routed_total"
	// MetricShed counts dropped requests, labeled {reason}: "reject"
	// (admission threshold reached under ShedReject), "spill_exhausted"
	// (every queue at the threshold under ShedSpill), or "throttled"
	// (tenant admission rate contract exceeded).
	MetricShed = "dolbie_dispatch_shed_total"
	// MetricSpilled counts requests rerouted off their weighted target
	// by ShedSpill.
	MetricSpilled = "dolbie_dispatch_spilled_total"
	// MetricBlocked counts admission attempts refused by ShedBlock.
	MetricBlocked = "dolbie_dispatch_blocked_total"
	// MetricQueueDepth gauges the current queue depth per worker,
	// labeled {worker} (the in-service request counts as queued until
	// completion).
	MetricQueueDepth = "dolbie_dispatch_queue_depth"
	// MetricCompletionLatency is the histogram of request completion
	// latency in seconds (completion time minus original arrival,
	// including any blocked wait).
	MetricCompletionLatency = "dolbie_dispatch_completion_latency_seconds"
	// MetricRetunes counts closed-loop weight updates applied to the
	// dispatcher (one per round when DOLBIE drives the weights).
	MetricRetunes = "dolbie_dispatch_retunes_total"
	// MetricShards gauges the configured number of admission shards.
	MetricShards = "dolbie_dispatch_shards"
	// MetricShardAdmissions counts admission attempts per shard, labeled
	// {shard}. The shard values sum to MetricArrivals at every scrape;
	// persistent skew means the request-ID hash is unbalanced.
	MetricShardAdmissions = "dolbie_dispatch_shard_admissions_total"
	// MetricShardDepth gauges the total queued requests per shard,
	// labeled {shard} (summed over the shard's worker queues). One shard
	// pinned while others idle sheds early: per-worker capacity is split
	// across shards.
	MetricShardDepth = "dolbie_dispatch_shard_queue_depth"
	// MetricBatchBatches counts batched-admission critical sections
	// committed by SubmitBatch (one per chunk: one shard lock acquire,
	// up to BatchSize admissions). Per-request Submit never increments
	// it, so a zero series on a batched deployment means the ingest path
	// is not actually batching.
	MetricBatchBatches = "dolbie_dispatch_batch_batches_total"
	// MetricBatchAdmissions counts requests admitted through SubmitBatch
	// chunks; the ratio to MetricBatchBatches is the realized batch
	// width (it sinks toward 1 when arrivals trickle in below the
	// configured BatchSize).
	MetricBatchAdmissions = "dolbie_dispatch_batch_admissions_total"
	// MetricBatchAffinityHits counts SubmitBatch chunks that acquired
	// the submitter's sticky home shard uncontended.
	MetricBatchAffinityHits = "dolbie_dispatch_batch_affinity_hits_total"
	// MetricBatchAffinityMisses counts SubmitBatch chunks that found the
	// home shard contended and fell over to another shard (or queued on
	// home when every shard was busy). A sustained miss rate above ~10%
	// means more submitters than shards — raise Shards or shrink the
	// submitter pool.
	MetricBatchAffinityMisses = "dolbie_dispatch_batch_affinity_misses_total"
	// MetricTenantArrivals counts admission attempts per tenant, labeled
	// {tenant}. The per-tenant family is exported only on multi-tenant
	// dispatchers (Config.Tenants non-empty) and is aggregated at scrape
	// time like the rest of the dolbie_dispatch_* family, so the
	// admission hot path stays registry-free.
	MetricTenantArrivals = "dolbie_dispatch_tenant_arrivals_total"
	// MetricTenantRouted counts enqueued requests per tenant, labeled
	// {tenant} (spills count on the tenant that spilled).
	MetricTenantRouted = "dolbie_dispatch_tenant_routed_total"
	// MetricTenantShed counts dropped requests per tenant, labeled
	// {tenant}; it includes both queue-pressure sheds and rate-contract
	// throttles, so arrivals == routed + shed + blocked holds per tenant
	// at every scrape.
	MetricTenantShed = "dolbie_dispatch_tenant_shed_total"
	// MetricTenantBlocked counts refused admission attempts per tenant,
	// labeled {tenant} (ShedBlock tenants only).
	MetricTenantBlocked = "dolbie_dispatch_tenant_blocked_total"
	// MetricTenantCompleted counts fully served requests per tenant,
	// labeled {tenant}.
	MetricTenantCompleted = "dolbie_dispatch_tenant_completed_total"
	// MetricLiveInflight gauges requests queued or in service in the
	// wall-clock live engine, refreshed at scrape time from the
	// dispatcher's lock-free depth. Exported only when a Live engine is
	// instrumented.
	MetricLiveInflight = "dolbie_dispatch_live_inflight"
	// MetricLiveDraining gauges the graceful-drain state: 1 while the
	// admission gate refuses new arrivals, else 0.
	MetricLiveDraining = "dolbie_dispatch_live_draining"
	// MetricLiveDrains counts graceful drains initiated (operator
	// shutdowns and drained round-boundary retunes).
	MetricLiveDrains = "dolbie_dispatch_live_drains_total"
	// MetricLiveReloads counts hot reloads applied through the admin
	// endpoint, labeled {knob}: "shed", "cap", or "weights".
	MetricLiveReloads = "dolbie_dispatch_live_reloads_total"
	// MetricLiveCompletions counts requests completed by the live
	// workers.
	MetricLiveCompletions = "dolbie_dispatch_live_completions_total"
	// MetricLiveIngestLatency is the histogram of server-side ingest
	// handler latency in wall-clock seconds (parse, admission, verdict
	// render — not the request's queueing or service time, which is
	// MetricCompletionLatency).
	MetricLiveIngestLatency = "dolbie_dispatch_live_ingest_latency_seconds"
)

// latencyBuckets spans sub-millisecond dispatch latencies up to the
// multi-second drain times of a saturated queue.
var latencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// liveIngestBuckets resolves the live ingest handler's service time:
// the floor is the loopback RTT scale (tens of microseconds), the tail
// covers scheduler stalls on a saturated box.
var liveIngestBuckets = []float64{0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}

// liveInstruments bundles the wall-clock engine's registry-backed
// metrics; nil when the engine is uninstrumented. The gauges refresh
// from lock-free reads at scrape time; the counters and the ingest
// histogram are updated on paths that already pay a socket round trip,
// so the per-event registry touch is noise there.
type liveInstruments struct {
	inflight      *metrics.Gauge
	draining      *metrics.Gauge
	drains        *metrics.Counter
	reloadShed    *metrics.Counter
	reloadCap     *metrics.Counter
	reloadWeights *metrics.Counter
	completions   *metrics.Counter
	ingestLatency *metrics.Histogram
}

func newLiveInstruments(reg *metrics.Registry) *liveInstruments {
	if reg == nil {
		return nil
	}
	reloads := reg.CounterVec(MetricLiveReloads, "Hot reloads applied via the admin endpoint, by knob.", "knob")
	return &liveInstruments{
		inflight:      reg.Gauge(MetricLiveInflight, "Requests queued or in service in the live engine."),
		draining:      reg.Gauge(MetricLiveDraining, "1 while the admission gate is draining, else 0."),
		drains:        reg.Counter(MetricLiveDrains, "Graceful drains initiated."),
		reloadShed:    reloads.WithLabelValues("shed"),
		reloadCap:     reloads.WithLabelValues("cap"),
		reloadWeights: reloads.WithLabelValues("weights"),
		completions:   reg.Counter(MetricLiveCompletions, "Requests completed by the live workers."),
		ingestLatency: reg.Histogram(MetricLiveIngestLatency, "Server-side ingest handler latency in seconds.", liveIngestBuckets),
	}
}

// dispatcherInstruments pre-resolves every label series the dispatcher
// touches, so neither the scrape-time collector (sharded dispatcher)
// nor the tests' single-lock reference (updates under its admission
// mutex) ever takes the registry's family locks.
type dispatcherInstruments struct {
	arrivals      *metrics.Counter
	routedByW     []*metrics.Counter
	depthByW      []*metrics.Gauge
	shedReject    *metrics.Counter
	shedExhausted *metrics.Counter
	shedThrottled *metrics.Counter
	spilled       *metrics.Counter
	blocked       *metrics.Counter
	latency       *metrics.Histogram
	retunes       *metrics.Counter
	shards        *metrics.Gauge
	shardAdmByS   []*metrics.Counter
	shardDepthByS []*metrics.Gauge

	// Batched-admission series (plain counters; the tests' reference
	// dispatcher has no batched path and leaves them at zero).
	batchBatches    *metrics.Counter
	batchAdmissions *metrics.Counter
	batchAffHits    *metrics.Counter
	batchAffMisses  *metrics.Counter

	// Per-tenant series, resolved only on multi-tenant dispatchers
	// (tenants is the resolved name list; nil/empty keeps the families
	// out of the export, like shards == 0 does for the shard series).
	tenantArrByT       []*metrics.Counter
	tenantRoutedByT    []*metrics.Counter
	tenantShedByT      []*metrics.Counter
	tenantBlockedByT   []*metrics.Counter
	tenantCompletedByT []*metrics.Counter
}

// newDispatcherInstruments registers the dolbie_dispatch_* family on
// reg (nil leaves the dispatcher uninstrumented) and resolves the
// per-worker series and, when shards > 0, the per-shard series (the
// tests' reference dispatcher passes 0: it predates sharding and must
// not export empty shard series).
// tenants carries the resolved tenant names of a multi-tenant
// dispatcher; nil keeps the per-tenant families unexported, which is
// how the anonymous single-stream configuration stays byte-identical
// to its pre-tenancy scrapes.
func newDispatcherInstruments(reg *metrics.Registry, n, shards int, tenants []string) *dispatcherInstruments {
	if reg == nil {
		return nil
	}
	routed := reg.CounterVec(MetricRouted, "Requests enqueued, by worker.", "worker")
	depth := reg.GaugeVec(MetricQueueDepth, "Current queue depth, by worker.", "worker")
	shed := reg.CounterVec(MetricShed, "Requests dropped by backpressure, by reason.", "reason")
	di := &dispatcherInstruments{
		arrivals:      reg.Counter(MetricArrivals, "Requests submitted to the dispatcher (including blocked attempts)."),
		routedByW:     make([]*metrics.Counter, n),
		depthByW:      make([]*metrics.Gauge, n),
		shedReject:    shed.WithLabelValues("reject"),
		shedExhausted: shed.WithLabelValues("spill_exhausted"),
		spilled:       reg.Counter(MetricSpilled, "Requests rerouted to the least-loaded worker by the spill policy."),
		blocked:       reg.Counter(MetricBlocked, "Admission attempts refused by the block policy."),
		latency:       reg.Histogram(MetricCompletionLatency, "Request completion latency in seconds.", latencyBuckets),
		retunes:       reg.Counter(MetricRetunes, "Closed-loop routing weight updates applied to the dispatcher."),
		shards:        reg.Gauge(MetricShards, "Configured number of admission shards."),

		batchBatches:    reg.Counter(MetricBatchBatches, "Batched-admission critical sections committed by SubmitBatch."),
		batchAdmissions: reg.Counter(MetricBatchAdmissions, "Requests admitted through SubmitBatch chunks."),
		batchAffHits:    reg.Counter(MetricBatchAffinityHits, "SubmitBatch chunks that acquired their sticky home shard uncontended."),
		batchAffMisses:  reg.Counter(MetricBatchAffinityMisses, "SubmitBatch chunks that fell away from a contended home shard."),
	}
	for i := 0; i < n; i++ {
		di.routedByW[i] = routed.WithLabelValues(strconv.Itoa(i))
		di.depthByW[i] = depth.WithLabelValues(strconv.Itoa(i))
	}
	if shards > 0 {
		admissions := reg.CounterVec(MetricShardAdmissions, "Admission attempts, by shard.", "shard")
		shardDepth := reg.GaugeVec(MetricShardDepth, "Queued requests, by shard.", "shard")
		di.shardAdmByS = make([]*metrics.Counter, shards)
		di.shardDepthByS = make([]*metrics.Gauge, shards)
		for s := 0; s < shards; s++ {
			di.shardAdmByS[s] = admissions.WithLabelValues(strconv.Itoa(s))
			di.shardDepthByS[s] = shardDepth.WithLabelValues(strconv.Itoa(s))
		}
	}
	if len(tenants) > 0 {
		var (
			arrivals  = reg.CounterVec(MetricTenantArrivals, "Admission attempts, by tenant.", "tenant")
			routed    = reg.CounterVec(MetricTenantRouted, "Requests enqueued, by tenant.", "tenant")
			shedT     = reg.CounterVec(MetricTenantShed, "Requests dropped (queue pressure or rate contract), by tenant.", "tenant")
			blocked   = reg.CounterVec(MetricTenantBlocked, "Admission attempts refused, by tenant.", "tenant")
			completed = reg.CounterVec(MetricTenantCompleted, "Requests fully served, by tenant.", "tenant")
		)
		di.shedThrottled = shed.WithLabelValues("throttled")
		di.tenantArrByT = make([]*metrics.Counter, len(tenants))
		di.tenantRoutedByT = make([]*metrics.Counter, len(tenants))
		di.tenantShedByT = make([]*metrics.Counter, len(tenants))
		di.tenantBlockedByT = make([]*metrics.Counter, len(tenants))
		di.tenantCompletedByT = make([]*metrics.Counter, len(tenants))
		for k, name := range tenants {
			di.tenantArrByT[k] = arrivals.WithLabelValues(name)
			di.tenantRoutedByT[k] = routed.WithLabelValues(name)
			di.tenantShedByT[k] = shedT.WithLabelValues(name)
			di.tenantBlockedByT[k] = blocked.WithLabelValues(name)
			di.tenantCompletedByT[k] = completed.WithLabelValues(name)
		}
	}
	return di
}

// collector carries the last-exported snapshot of the sharded
// dispatcher's counters, so each scrape advances the registry's
// monotonic counters by exact deltas. Guarded by its mutex (scrapes may
// overlap); the per-shard snapshots it sums are each taken under that
// shard's own mutex, and every admission commits atomically inside one
// such critical section — which is why the exported family values
// satisfy arrivals == sum(routed) + shed + blocked at every scrape,
// even mid-load.
type collector struct {
	mu                sync.Mutex
	lastArrivals      int64
	lastRouted        []int64
	lastShedReject    int64
	lastShedExhausted int64
	lastShedThrottled int64
	lastSpilled       int64
	lastBlocked       int64
	lastShardAdm      []int64
	lastBatches       int64
	lastBatchAdm      int64
	lastAffHits       int64
	lastAffMisses     int64
	lastLatCounts     []int64
	lastLatInf        int64
	lastLatSum        float64
	lastLatCount      int64

	// Per-tenant last-exported snapshots; zero-length on single-stream
	// dispatchers (the per-tenant families are not exported there).
	lastTenantArr       []int64
	lastTenantRouted    []int64
	lastTenantShed      []int64
	lastTenantBlocked   []int64
	lastTenantCompleted []int64
}

func newCollector(n, shards, tenants int) *collector {
	return &collector{
		lastRouted:          make([]int64, n),
		lastShardAdm:        make([]int64, shards),
		lastLatCounts:       make([]int64, len(latencyBuckets)),
		lastTenantArr:       make([]int64, tenants),
		lastTenantRouted:    make([]int64, tenants),
		lastTenantShed:      make([]int64, tenants),
		lastTenantBlocked:   make([]int64, tenants),
		lastTenantCompleted: make([]int64, tenants),
	}
}

// collect refreshes the registry series from the shard counters. It is
// registered as the registry's OnCollect hook, so every /metrics scrape
// sees one consistent snapshot; the collector mutex serializes
// overlapping scrapes.
func (d *Dispatcher) collect() {
	d.col.mu.Lock()
	defer d.col.mu.Unlock()
	n, ns, nt := d.cfg.N, len(d.shards), len(d.col.lastTenantArr)
	var (
		arrivals, shedReject, shedExhausted, shedThrottled, spilled, blocked int64
		batches, batchAdm                                                    int64
		latInf, latCount                                                     int64
		latSum                                                               float64
		routed                                                               = make([]int64, n)
		depths                                                               = make([]int, n)
		shardAdm                                                             = make([]int64, ns)
		shardDepth                                                           = make([]int, ns)
		latCounts                                                            = make([]int64, len(latencyBuckets))
		tenantArr                                                            = make([]int64, nt)
		tenantRouted                                                         = make([]int64, nt)
		tenantShed                                                           = make([]int64, nt)
		tenantBlocked                                                        = make([]int64, nt)
		tenantCompleted                                                      = make([]int64, nt)
	)
	for si, s := range d.shards {
		s.mu.Lock()
		shedReject += s.shedReject
		shedExhausted += s.shedExhausted
		batches += s.batches
		batchAdm += s.batchAdmitted
		for k := range d.tenants {
			shardAdm[si] += s.tArrivals[k]
			shedThrottled += s.tThrottled[k]
			spilled += s.tSpilled[k]
			blocked += s.tBlocked[k]
		}
		arrivals += shardAdm[si]
		for w, r := range s.routed {
			routed[w] += r
			l := s.queues[w].len()
			depths[w] += l
			shardDepth[si] += l
		}
		for k := 0; k < nt; k++ {
			tenantArr[k] += s.tArrivals[k]
			tenantRouted[k] += s.tRouted[k]
			tenantShed[k] += s.tShed[k] + s.tThrottled[k]
			tenantBlocked[k] += s.tBlocked[k]
			tenantCompleted[k] += s.tCompleted[k]
		}
		for b, c := range s.latCounts {
			latCounts[b] += c
		}
		latInf += s.latInf
		latSum += s.latSum
		latCount += s.latCount
		s.mu.Unlock()
	}
	c := d.col
	d.inst.arrivals.Add(float64(arrivals - c.lastArrivals))
	c.lastArrivals = arrivals
	d.inst.shedReject.Add(float64(shedReject - c.lastShedReject))
	c.lastShedReject = shedReject
	d.inst.shedExhausted.Add(float64(shedExhausted - c.lastShedExhausted))
	c.lastShedExhausted = shedExhausted
	if d.inst.shedThrottled != nil {
		d.inst.shedThrottled.Add(float64(shedThrottled - c.lastShedThrottled))
		c.lastShedThrottled = shedThrottled
	}
	d.inst.spilled.Add(float64(spilled - c.lastSpilled))
	c.lastSpilled = spilled
	d.inst.blocked.Add(float64(blocked - c.lastBlocked))
	c.lastBlocked = blocked
	d.inst.batchBatches.Add(float64(batches - c.lastBatches))
	c.lastBatches = batches
	d.inst.batchAdmissions.Add(float64(batchAdm - c.lastBatchAdm))
	c.lastBatchAdm = batchAdm
	// The affinity counters are dispatcher-level atomics (a chunk's shard
	// acquisition is not owned by any one shard); they are read lock-free
	// and advanced by the same delta pattern as the shard counters.
	affHits, affMisses := d.affinityHits.Load(), d.affinityMisses.Load()
	d.inst.batchAffHits.Add(float64(affHits - c.lastAffHits))
	c.lastAffHits = affHits
	d.inst.batchAffMisses.Add(float64(affMisses - c.lastAffMisses))
	c.lastAffMisses = affMisses
	for k := 0; k < nt; k++ {
		d.inst.tenantArrByT[k].Add(float64(tenantArr[k] - c.lastTenantArr[k]))
		c.lastTenantArr[k] = tenantArr[k]
		d.inst.tenantRoutedByT[k].Add(float64(tenantRouted[k] - c.lastTenantRouted[k]))
		c.lastTenantRouted[k] = tenantRouted[k]
		d.inst.tenantShedByT[k].Add(float64(tenantShed[k] - c.lastTenantShed[k]))
		c.lastTenantShed[k] = tenantShed[k]
		d.inst.tenantBlockedByT[k].Add(float64(tenantBlocked[k] - c.lastTenantBlocked[k]))
		c.lastTenantBlocked[k] = tenantBlocked[k]
		d.inst.tenantCompletedByT[k].Add(float64(tenantCompleted[k] - c.lastTenantCompleted[k]))
		c.lastTenantCompleted[k] = tenantCompleted[k]
	}
	for w := 0; w < n; w++ {
		d.inst.routedByW[w].Add(float64(routed[w] - c.lastRouted[w]))
		c.lastRouted[w] = routed[w]
		d.inst.depthByW[w].Set(float64(depths[w]))
	}
	for si := 0; si < ns; si++ {
		d.inst.shardAdmByS[si].Add(float64(shardAdm[si] - c.lastShardAdm[si]))
		c.lastShardAdm[si] = shardAdm[si]
		d.inst.shardDepthByS[si].Set(float64(shardDepth[si]))
	}
	if latCount != c.lastLatCount {
		deltas := make([]uint64, len(latCounts))
		for b := range latCounts {
			deltas[b] = uint64(latCounts[b] - c.lastLatCounts[b])
			c.lastLatCounts[b] = latCounts[b]
		}
		d.inst.latency.Merge(deltas, uint64(latInf-c.lastLatInf), latSum-c.lastLatSum, uint64(latCount-c.lastLatCount))
		c.lastLatInf, c.lastLatSum, c.lastLatCount = latInf, latSum, latCount
	}
}
