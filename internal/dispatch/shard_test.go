package dispatch

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestShardCapacitySplit checks that a worker's configured capacity is
// partitioned exactly across the shards: every shard slice gets at
// least one slot, and the per-worker slice capacities sum to QueueCap
// with no overshoot and no loss.
func TestShardCapacitySplit(t *testing.T) {
	cases := []struct{ queueCap, shards int }{
		{1, 1}, {8, 1}, {8, 3}, {8, 8}, {9, 8}, {15, 4}, {1024, 7},
	}
	for _, c := range cases {
		d, err := New(Config{N: 3, QueueCap: c.queueCap, Shards: c.shards})
		if err != nil {
			t.Fatalf("New(QueueCap=%d, Shards=%d): %v", c.queueCap, c.shards, err)
		}
		if got := d.Shards(); got != c.shards {
			t.Errorf("QueueCap=%d, Shards=%d: Shards() = %d", c.queueCap, c.shards, got)
		}
		for w := 0; w < 3; w++ {
			sum := 0
			for _, s := range d.shards {
				capS := len(s.queues[w].buf)
				if capS < 1 {
					t.Errorf("QueueCap=%d, Shards=%d: worker %d has a zero-capacity shard slice", c.queueCap, c.shards, w)
				}
				sum += capS
			}
			if sum != c.queueCap {
				t.Errorf("QueueCap=%d, Shards=%d: worker %d slices sum to %d", c.queueCap, c.shards, w, sum)
			}
		}
	}
}

// TestConfigValidateShards covers the shard-specific Validate cases:
// negative counts are rejected, a capacity below the shard count is
// rejected (some shard slice would get zero slots), and zero defaults
// to one shard.
func TestConfigValidateShards(t *testing.T) {
	if err := (Config{N: 2, QueueCap: 4, Shards: -1}).Validate(); err == nil || !strings.Contains(err.Error(), "Shards") {
		t.Errorf("negative Shards: got %v, want Shards error", err)
	}
	if err := (Config{N: 2, QueueCap: 4, Shards: 5}).Validate(); err == nil || !strings.Contains(err.Error(), "below shard count") {
		t.Errorf("QueueCap < Shards: got %v, want capacity error", err)
	}
	if err := (Config{N: 2, QueueCap: 4, Shards: 4}).Validate(); err != nil {
		t.Errorf("QueueCap == Shards: %v", err)
	}
	d, err := New(Config{N: 2, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Shards(); got != 1 {
		t.Errorf("default Shards() = %d, want 1", got)
	}
}

// TestCrossShardCompletionOrder checks the lock-free oldest-head
// discovery: with a single worker whose requests scatter across many
// shard queues, Head must always report — and Complete must always pop
// — the globally oldest request by ID, i.e. completions come back in
// exact admission order even though the queues are sharded.
func TestCrossShardCompletionOrder(t *testing.T) {
	// Capacity is split across shards, so size it for the worst case of
	// the whole trace hashing onto one shard: requests*8 gives every
	// shard slice room for all 64 admissions.
	const requests = 64
	d, err := New(Config{N: 1, QueueCap: requests * 8, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= requests; id++ {
		if v := d.Submit(Request{ID: id, Arrival: float64(id), Demand: 1}); v.Outcome != Routed || v.Worker != 0 {
			t.Fatalf("request %d: verdict %+v", id, v)
		}
	}
	for want := int64(1); want <= requests; want++ {
		h, ok := d.Head(0)
		if !ok || h.ID != want {
			t.Fatalf("Head = %+v,%v, want ID %d", h, ok, want)
		}
		r, ok := d.Complete(0, float64(requests))
		if !ok || r.ID != want {
			t.Fatalf("Complete = %+v,%v, want ID %d", r, ok, want)
		}
	}
	if _, ok := d.Head(0); ok {
		t.Error("Head reported a request on a drained worker")
	}
	if _, ok := d.Complete(0, 0); ok {
		t.Error("Complete popped from a drained worker")
	}
	if tot := d.Totals(); tot.Completed != requests {
		t.Errorf("Completed = %d, want %d", tot.Completed, requests)
	}
}

// TestConcurrentCompletionsNeverLoseARequest pins the per-worker
// completion lock: many goroutines completing the same worker
// concurrently — the case the lock serializes, and under -race the
// proof that it excludes every other popper — drain exactly the
// admitted requests, each popped once, in increasing ID order as each
// completer sees them.
func TestConcurrentCompletionsNeverLoseARequest(t *testing.T) {
	const requests = 512
	d, err := New(Config{N: 2, QueueCap: requests * 8, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= requests; id++ {
		if v := d.Submit(Request{ID: id, Arrival: 0, Demand: 1}); v.Outcome != Routed {
			t.Fatalf("request %d: verdict %+v", id, v)
		}
	}
	depths := d.Depths()
	const completers = 8
	got := make([][]int64, completers)
	var wg sync.WaitGroup
	for g := 0; g < completers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				r, ok := d.Complete(0, 1)
				if !ok {
					return
				}
				got[g] = append(got[g], r.ID)
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[int64]bool, requests)
	for g := range got {
		for i, id := range got[g] {
			if seen[id] {
				t.Fatalf("request %d completed twice", id)
			}
			seen[id] = true
			if i > 0 && got[g][i-1] >= id {
				t.Fatalf("completer %d saw IDs out of order: %d then %d", g, got[g][i-1], id)
			}
		}
	}
	if len(seen) != depths[0] {
		t.Fatalf("completed %d of worker 0's %d requests", len(seen), depths[0])
	}
	if _, ok := d.Complete(0, 1); ok {
		t.Error("Complete popped from a drained worker")
	}
	if gotD := d.Depths(); gotD[0] != 0 || gotD[1] != depths[1] {
		t.Errorf("depths %v after worker 0 drain, want [0 %d]", gotD, depths[1])
	}
}

// TestDispatcherAccessors covers the trivial read surface on both
// implementations so the equivalence seam stays honest: N, Weights, and
// (for the reference) Depths must agree between the sharded dispatcher
// and the single-lock reference.
func TestDispatcherAccessors(t *testing.T) {
	ds, err := New(Config{N: 3, QueueCap: 9, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	dr, err := newRefDispatcher(Config{N: 3, QueueCap: 9})
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 3 || dr.N() != 3 {
		t.Errorf("N = %d / %d, want 3", ds.N(), dr.N())
	}
	w := []float64{0.5, 0.25, 0.25}
	if err := ds.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	if err := dr.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	ws, wr := ds.Weights(), dr.Weights()
	for i := range w {
		if ws[i] != w[i] || wr[i] != w[i] {
			t.Errorf("weight %d = %v / %v, want %v", i, ws[i], wr[i], w[i])
		}
	}
	if err := ds.SetWeights([]float64{1}); err == nil {
		t.Error("short weight vector accepted")
	}
	if err := dr.SetWeights([]float64{-1, 1, 1}); err == nil {
		t.Error("negative weight accepted by reference")
	}
	dr.Submit(Request{ID: 1, Demand: 2})
	if got := dr.Depths(); got[0]+got[1]+got[2] != 1 {
		t.Errorf("reference depths %v after one admission", got)
	}
}

// TestQueuePushFullPanics pins the queue's contract: push on a full
// ring is a programming error and must panic rather than overwrite.
func TestQueuePushFullPanics(t *testing.T) {
	q := newQueue(1, new(atomic.Int64))
	q.push(Request{ID: 1})
	defer func() {
		if recover() == nil {
			t.Error("push on full queue did not panic")
		}
	}()
	q.push(Request{ID: 2})
}
