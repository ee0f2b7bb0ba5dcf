package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"dolbie/internal/dispatch"
	"dolbie/internal/metrics"
)

// admitBatch is the batched admission storm: 2 goroutines, each with its
// own Submitter, push pre-generated 64-request batches into a 4-shard
// dispatcher with BatchSize 64, and each drains its half of the 8
// workers with CompleteBatch. Goroutine 0 swaps the routing weights
// (a stop-the-world SetWeights epoch) every epochEvery ops. An op is one
// SubmitBatch call.
//
// Provisioning keeps every verdict routed without a barrier: a
// goroutine whose partner finished no op during its own last helpAfter
// ops (descheduled, or done with its share of the slice) also drains
// the partner's half, so no worker backs up by more than about
// helpAfter batches, far below the per-shard queue slice. On a host that gives the two goroutines less
// than two cores, those helping drains are also where the completion
// rings see contention.
type admitBatch struct {
	d       *dispatch.Dispatcher
	subs    [2]*dispatch.Submitter
	batches [2][][]dispatch.Request // pre-generated, cycled
	verdict [2][]dispatch.Verdict
	weights [][]float64
	nextID  [2]int64
	iter    [2]int
	epoch   int
	done    [2]atomic.Int64 // ops finished in the current slice
	share   [2]int64        // ops each goroutine runs in the current slice

	submitted [2]int64
	routed    [2]int64
	verdicts  [2]int64
	failedOps [2]int64 // ops of the current slice with a request not routed
	helped    [2]int64

	logs                [2]*spanLog
	completeUS, epochUS []float64
}

const (
	batchWidth   = 64
	batchWorkers = 8
	batchShards  = 4
	batchPool    = 256 // pre-generated batches per goroutine
	epochEvery   = 1024
	helpAfter    = 8
	// spanEvery samples the CompleteBatch spans of one op in this many,
	// which keeps a traced slice's span log to a few MiB.
	spanEvery = 16
	// batchQueueCap is per worker across shards: 1024 per shard slice,
	// against about helpAfter × 64 × 0.25 ≈ 130 requests queued on one
	// worker in the worst case.
	batchQueueCap = 4096
)

func (a *admitBatch) opsPerSecond() float64 { return 150_000 }

func (a *admitBatch) setup(seed int64, work float64) error {
	d, err := dispatch.New(dispatch.Config{
		N:         batchWorkers,
		QueueCap:  batchQueueCap,
		Shards:    batchShards,
		BatchSize: batchWidth,
		Shed:      dispatch.ShedReject,
		Metrics:   metrics.NewRegistry(), // instrumented, as dolbie-serve runs it
	})
	if err != nil {
		return err
	}
	a.d = d
	rng := rand.New(rand.NewSource(seed))
	for g := range a.batches {
		a.subs[g] = d.NewSubmitter()
		a.batches[g] = make([][]dispatch.Request, batchPool)
		for b := range a.batches[g] {
			rs := make([]dispatch.Request, batchWidth)
			for i := range rs {
				rs[i].Demand = rng.ExpFloat64()
			}
			a.batches[g][b] = rs
		}
		a.verdict[g] = make([]dispatch.Verdict, 0, batchWidth)
	}
	// Weight vectors are rotations of one seeded vector, so over every
	// 8 epochs each worker gets the same total share.
	base := make([]float64, batchWorkers)
	sum := 0.0
	for i := range base {
		base[i] = 0.5 + rng.Float64()
		sum += base[i]
	}
	for r := 0; r < batchWorkers; r++ {
		w := make([]float64, batchWorkers)
		for i := range w {
			w[i] = base[(i+r)%batchWorkers] / sum
		}
		a.weights = append(a.weights, w)
	}
	warm := &slice{ops: int(max(2, 20_000*work)), hists: []*hist{newHist(), newHist()}}
	if err := a.runSlice(warm); err != nil {
		return err
	}
	return a.settle(warm)
}

func (a *admitBatch) prepare(sl *slice) error {
	for g := range a.logs {
		a.logs[g] = nil
		if sl.traced {
			a.logs[g] = newSpanLog(sl.ops/spanEvery*batchWorkers + 64)
		}
	}
	return nil
}

func (a *admitBatch) runSlice(sl *slice) error {
	a.share = [2]int64{int64(sl.ops - sl.ops/2), int64(sl.ops / 2)}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		n := int(a.share[g])
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.storm(g, n, sl.hists[g], a.logs[g])
		}()
	}
	wg.Wait()
	return nil
}

// storm is one goroutine's share of a slice: n SubmitBatch ops, each
// followed by draining this goroutine's half of the workers.
func (a *admitBatch) storm(g, n int, h *hist, log *spanLog) {
	sub := a.subs[g]
	lo, hi := g*batchWorkers/2, (g+1)*batchWorkers/2
	var lastOther, stalled int64
	for i := 0; i < n; i++ {
		rs := a.batches[g][a.iter[g]%batchPool]
		a.iter[g]++
		for k := range rs {
			rs[k].ID = a.nextID[g]*2 + int64(g)
			a.nextID[g]++
		}
		t0 := nanotime()
		out := sub.SubmitBatch(rs, a.verdict[g][:0])
		t1 := nanotime()
		h.add(t1 - t0)
		routed := 0
		for _, v := range out {
			if v.Worker >= 0 && v.Worker < batchWorkers && (v.Outcome == dispatch.Routed || v.Outcome == dispatch.Spilled) {
				routed++
			}
		}
		if routed != len(rs) {
			a.failedOps[g]++
		}
		a.submitted[g] += int64(len(rs))
		a.verdicts[g] += int64(len(out))
		a.routed[g] += int64(routed)
		sampled := log
		if i%spanEvery != 0 {
			sampled = nil
		}
		a.drain(lo, hi, i, sampled)
		if g == 0 && a.iter[g]%epochEvery == 0 {
			a.epoch++
			e0 := nanotime()
			if err := a.d.SetWeights(a.weights[a.epoch%len(a.weights)]); err != nil {
				panic(err) // the weight vectors are valid by construction
			}
			if log != nil {
				log.add("set_weights", e0, nanotime(), -1, int64(i))
			}
		}
		a.done[g].Add(1)
		if other := a.done[1-g].Load(); other != lastOther {
			lastOther, stalled = other, 0
		} else {
			stalled++
		}
		if stalled >= helpAfter || lastOther == a.share[1-g] {
			a.helped[g]++
			a.drain((1-g)*batchWorkers/2, (2-g)*batchWorkers/2, i, sampled)
		}
	}
}

// drain completes everything queued on workers [lo, hi).
func (a *admitBatch) drain(lo, hi, op int, log *spanLog) {
	for w := lo; w < hi; w++ {
		c0 := nanotime()
		a.d.CompleteBatch(w, 1<<30, 0)
		if log != nil {
			log.add("complete_batch", c0, nanotime(), -1, int64(op))
		}
	}
}

func (a *admitBatch) settle(sl *slice) error {
	for g := range a.done {
		a.done[g].Store(0)
	}
	for a.d.Depth() > 0 {
		for w := 0; w < batchWorkers; w++ {
			a.d.CompleteBatch(w, 1<<30, 0)
		}
	}
	for g := range a.failedOps {
		sl.failed += a.failedOps[g]
		a.failedOps[g] = 0
	}
	for _, log := range a.logs {
		if log == nil {
			continue
		}
		a.completeUS = append(a.completeUS, durationsUS(log.spans, "complete_batch")...)
		a.epochUS = append(a.epochUS, durationsUS(log.spans, "set_weights")...)
	}
	return nil
}

func (a *admitBatch) finish(r *result) error {
	var submitted, routed, verdicts int64
	for g := range a.submitted {
		submitted += a.submitted[g]
		routed += a.routed[g]
		verdicts += a.verdicts[g]
	}
	if verdicts != submitted {
		r.fail("admit_batch: %d verdicts for %d requests", verdicts, submitted)
	}
	if routed != submitted {
		r.fail("admit_batch: %d of %d requests not routed", submitted-routed, submitted)
	}
	r.info = append(r.info, fmt.Sprintf("helping drains on %d of %d ops", a.helped[0]+a.helped[1], submitted/batchWidth))
	st := a.d.BatchStats()
	if st.Admitted != submitted {
		r.fail("admit_batch: BatchStats().Admitted = %d, submitted %d", st.Admitted, submitted)
	}
	t := a.d.Totals()
	var sumRouted, maxRouted int64
	for _, x := range t.Routed {
		sumRouted += x
		maxRouted = max(maxRouted, x)
	}
	if t.Arrivals != submitted || t.Arrivals != sumRouted+t.Shed+t.Blocked || t.Completed != sumRouted {
		r.fail("admit_batch: totals do not conserve: %+v", t)
	}
	if sumRouted > 0 {
		r.globalCost = float64(maxRouted) / (float64(sumRouted) / batchWorkers)
	}
	pl := r.perLayer
	if st.Batches > 0 {
		pl["dispatch.batch.width_mean"] = float64(st.Admitted) / float64(st.Batches)
		pl["dispatch.batch.affinity_hit_frac"] = float64(st.AffinityHits) / float64(st.AffinityHits+st.AffinityMisses)
	}
	pl["dispatch.complete.batch_us_p50"] = median(a.completeUS)
	pl["dispatch.complete.batch_us_p99"] = percentile(a.completeUS, 99)
	pl["dispatch.epoch.set_weights_us_p50"] = median(a.epochUS)
	if len(a.epochUS) > 0 {
		pl["dispatch.epoch.set_weights_us_max"] = percentile(a.epochUS, 100)
	}
	return nil
}

func (a *admitBatch) close() {}
