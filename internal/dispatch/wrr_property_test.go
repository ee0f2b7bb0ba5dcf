package dispatch

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestSmoothWRRProportionality is the property test for routing
// fidelity: across many seeds and skewed weight vectors, each worker's
// routed share must track its normalized weight x_{i,t}. Smooth WRR is
// deterministic with bounded drift — each shard's per-worker routing
// error never exceeds a constant independent of the admission count —
// so with K admissions over S shards the aggregate share deviates from
// x_i by at most O(S*N/K). The asserted tolerance of 0.02 is ~6x the
// worst-case bound at K=20000, S=8, N=8, so a real proportionality bug
// (not float noise) is needed to trip it. Queue capacity is 3K: a
// worker's capacity is split across shards, so every shard slice must
// individually absorb the worst case of one worker receiving a whole
// shard's admissions (3K/S > K/S plus hash variance) — no request is
// shed, every admission is a routing decision.
func TestSmoothWRRProportionality(t *testing.T) {
	const (
		admissions = 20000
		tolerance  = 0.02
	)
	for seed := int64(1); seed <= 20; seed++ {
		for _, shards := range []int{1, 8} {
			name := fmt.Sprintf("seed=%d/shards=%d", seed, shards)
			rng := rand.New(rand.NewSource(seed))
			n := 2 + rng.Intn(7) // 2..8 workers
			// Skewed weights: squared uniforms span roughly two orders of
			// magnitude, with a floor so no worker is starved entirely.
			weights := make([]float64, n)
			var sum float64
			for i := range weights {
				u := rng.Float64()
				weights[i] = 0.01 + u*u
				sum += weights[i]
			}

			d, err := New(Config{N: n, QueueCap: 3 * admissions, Shards: shards, Shed: ShedReject, Route: RouteWeighted})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := d.SetWeights(weights); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			gen, err := NewGenerator(100, 1, seed+1000)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, r := range pregenerate(gen, admissions) {
				if v := d.Submit(r); v.Outcome != Routed {
					t.Fatalf("%s: unexpected outcome %v (queues sized to absorb the whole trace)", name, v.Outcome)
				}
			}

			tot := d.Totals()
			maxDev := 0.0
			for i, w := range weights {
				share := float64(tot.Routed[i]) / admissions
				if dev := share - w/sum; dev > maxDev {
					maxDev = dev
				} else if -dev > maxDev {
					maxDev = -dev
				}
			}
			if maxDev > tolerance {
				t.Errorf("%s: n=%d max |share - x_i| = %v exceeds %v (weights %v, routed %v)",
					name, n, maxDev, tolerance, weights, tot.Routed)
			}
		}
	}
}
