package dispatch

import (
	"strconv"

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
// touches, so neither the scrape hook (sharded dispatcher) nor the
// tests' single-lock reference (updates under its admission mutex) ever
// takes the registry's family locks.
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

// collect is the registry's OnCollect hook: it advances every series by
// the difference between a fresh sum and the one the previous scrape
// exported. Every sum satisfies both conservation laws, so every scrape
// does too, even mid-load.
func (d *Dispatcher) collect() {
	c, was, in := d.sum(), d.last, d.inst
	d.last = c
	add := func(ctr *metrics.Counter, now, prev int64) { ctr.Add(float64(now - prev)) }
	a, p := c.all(), was.all()
	add(in.arrivals, a.Arrivals, p.Arrivals)
	add(in.shedReject, c.shedReject, was.shedReject)
	add(in.shedExhausted, c.shedExhausted, was.shedExhausted)
	if in.shedThrottled != nil {
		add(in.shedThrottled, a.Throttled, p.Throttled)
	}
	add(in.spilled, a.Spilled, p.Spilled)
	add(in.blocked, a.Blocked, p.Blocked)
	add(in.batchBatches, c.batches, was.batches)
	add(in.batchAdmissions, c.batchAdmitted, was.batchAdmitted)
	add(in.batchAffHits, c.affHits, was.affHits)
	add(in.batchAffMisses, c.affMisses, was.affMisses)
	for k := range in.tenantArrByT { // empty on single-stream dispatchers
		t, tp := c.tenants[k], was.tenants[k]
		add(in.tenantArrByT[k], t.Arrivals, tp.Arrivals)
		add(in.tenantRoutedByT[k], t.Routed, tp.Routed)
		add(in.tenantShedByT[k], t.Shed+t.Throttled, tp.Shed+tp.Throttled)
		add(in.tenantBlockedByT[k], t.Blocked, tp.Blocked)
		add(in.tenantCompletedByT[k], t.Completed, tp.Completed)
	}
	for w := range c.routed {
		add(in.routedByW[w], c.routed[w], was.routed[w])
		in.depthByW[w].Set(float64(c.depths[w]))
	}
	for si := range c.shardAdm {
		add(in.shardAdmByS[si], c.shardAdm[si], was.shardAdm[si])
		in.shardDepthByS[si].Set(float64(c.shardDepth[si]))
	}
	if c.latCount != was.latCount {
		deltas := make([]uint64, len(c.latCounts))
		for b := range deltas {
			deltas[b] = uint64(c.latCounts[b] - was.latCounts[b])
		}
		in.latency.Merge(deltas, uint64(c.latInf-was.latInf), c.latSum-was.latSum, uint64(c.latCount-was.latCount))
	}
}
