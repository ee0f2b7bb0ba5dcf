package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dolbie/internal/costfn"
	"dolbie/internal/simplex"
)

// TestBalancerWithQuantizedCosts exercises the non-strictly-increasing
// case the paper explicitly allows: step cost functions with flat
// regions. Feasibility and monotone invariants must survive.
func TestBalancerWithQuantizedCosts(t *testing.T) {
	const n = 5
	funcs := make([]costfn.Func, n)
	for i := range funcs {
		funcs[i] = costfn.Quantized{
			Inner: costfn.Affine{Slope: 1 + float64(i)*2, Intercept: 0.05},
			Units: 64,
		}
	}
	b, err := NewBalancer(simplex.Uniform(n), WithInitialAlpha(0.02))
	if err != nil {
		t.Fatal(err)
	}
	prevAlpha := b.Alpha()
	for round := 0; round < 120; round++ {
		x := b.Assignment()
		g, costs, err := GlobalCost(funcs, x)
		if err != nil {
			t.Fatal(err)
		}
		_ = g
		rep, err := b.Step(Observation{Costs: costs, Funcs: funcs})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := simplex.Check(rep.Next, 1e-7); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if b.Alpha() > prevAlpha+1e-15 {
			t.Fatalf("round %d: alpha increased", round)
		}
		prevAlpha = b.Alpha()
	}
	// The balancer should still have improved markedly over uniform.
	gU, _, err := GlobalCost(funcs, simplex.Uniform(n))
	if err != nil {
		t.Fatal(err)
	}
	gB, _, err := GlobalCost(funcs, b.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	if gB >= gU {
		t.Errorf("no improvement on quantized costs: %v vs uniform %v", gB, gU)
	}
}

// TestBalancerWithPowerCosts checks convergence on the paper's
// non-linear (convex and concave) cost families.
func TestBalancerWithPowerCosts(t *testing.T) {
	tests := []struct {
		name  string
		funcs []costfn.Func
	}{
		{
			"convex",
			[]costfn.Func{
				costfn.Power{Coeff: 2, Exponent: 2, Intercept: 0.05},
				costfn.Power{Coeff: 6, Exponent: 2, Intercept: 0.02},
				costfn.Power{Coeff: 12, Exponent: 2, Intercept: 0.1},
			},
		},
		{
			"concave",
			[]costfn.Func{
				costfn.Power{Coeff: 1, Exponent: 0.5, Intercept: 0.05},
				costfn.Power{Coeff: 3, Exponent: 0.5, Intercept: 0.02},
				costfn.Power{Coeff: 5, Exponent: 0.5, Intercept: 0.1},
			},
		},
		{
			"mixed",
			[]costfn.Func{
				costfn.Affine{Slope: 2, Intercept: 0.05},
				costfn.Power{Coeff: 4, Exponent: 1.7},
				costfn.Power{Coeff: 2, Exponent: 0.6, Intercept: 0.02},
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			n := len(tt.funcs)
			b, err := NewBalancer(simplex.Uniform(n), WithInitialAlpha(0.05))
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 300; round++ {
				x := b.Assignment()
				_, costs, err := GlobalCost(tt.funcs, x)
				if err != nil {
					t.Fatal(err)
				}
				if err := b.Update(Observation{Costs: costs, Funcs: tt.funcs}); err != nil {
					t.Fatal(err)
				}
			}
			// Near-equalization: max and min local costs within 30%.
			_, costs, err := GlobalCost(tt.funcs, b.Assignment())
			if err != nil {
				t.Fatal(err)
			}
			maxC, minC := costs[0], costs[0]
			for _, c := range costs {
				maxC = math.Max(maxC, c)
				minC = math.Min(minC, c)
			}
			if maxC > 1.3*minC+0.05 {
				t.Errorf("costs not near-equalized after 300 rounds: %v", costs)
			}
		})
	}
}

// TestBalancerBisectionTolTradeoff verifies that a coarse bisection
// tolerance still preserves feasibility (it only changes x' precision).
func TestBalancerBisectionTolTradeoff(t *testing.T) {
	pl := func(seed int64) costfn.Func {
		r := rand.New(rand.NewSource(seed))
		xs := []float64{0, 0.5, 1}
		ys := []float64{r.Float64() * 0.1, 0.2 + r.Float64(), 1.5 + r.Float64()}
		f, err := costfn.NewPiecewiseLinear(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	funcs := []costfn.Func{pl(1), pl(2), pl(3), pl(4)}
	for _, tol := range []float64{1e-12, 1e-6, 1e-3} {
		b, err := NewBalancer(simplex.Uniform(4), WithInitialAlpha(0.05), WithBisectionTol(tol))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 50; round++ {
			x := b.Assignment()
			_, costs, err := GlobalCost(funcs, x)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Update(Observation{Costs: costs, Funcs: funcs}); err != nil {
				t.Fatalf("tol %v round %d: %v", tol, round, err)
			}
			if err := simplex.Check(b.Assignment(), 1e-6); err != nil {
				t.Fatalf("tol %v round %d: %v", tol, round, err)
			}
		}
	}
}

// TestMasterRejectsJunkWithoutPanic feeds the master state machine
// adversarial message sequences: duplicates, unknown senders, stale
// rounds, and mixed-up phases must produce errors, never panics or
// corrupted rounds.
func TestMasterRejectsJunkWithoutPanic(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		m, err := NewMaster(simplex.Uniform(n))
		if err != nil {
			return false
		}
		// Interleave valid protocol progress with junk; the master must
		// reject junk (error) and still finish rounds when fed complete
		// valid sets.
		for step := 0; step < 200; step++ {
			switch r.Intn(3) {
			case 0:
				//nolint:errcheck // junk may be legitimately rejected
				m.HandleCost(CostReport{
					Round: m.Round() + r.Intn(3) - 1,
					From:  r.Intn(n + 2),
					Cost:  r.Float64() * 10,
				})
			case 1:
				//nolint:errcheck // junk may be legitimately rejected
				m.HandleDecision(DecisionReport{
					Round: m.Round() + r.Intn(3) - 1,
					From:  r.Intn(n + 2),
					Next:  r.Float64(),
				})
			case 2:
				// Occasionally feed a full valid round to advance.
				before := m.Round()
				if !feedValidRound(m, n, r) {
					// The machine may be mid-phase from junk; that's fine.
					continue
				}
				if m.Round() != before+1 {
					return false
				}
			}
		}
		return true
	}
	// Seed 9162373907606303140 once drove n=2 from round 4 to round 6 in
	// one valid round, through buffered junk decisions for a round whose
	// coordinate had not been sent.
	for _, seed := range []int64{9162373907606303140} {
		if !prop(seed) {
			t.Errorf("junk seed %d corrupted the master's rounds", seed)
		}
	}
	const quickSeed = 11
	if err := quick.Check(prop, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Errorf("quick seed %d: %v", quickSeed, err)
	}
}

// feedValidRound attempts to drive the master through one complete round
// starting from a clean phase; returns false if the master was mid-phase.
func feedValidRound(m *MasterState, n int, r *rand.Rand) bool {
	round := m.Round()
	var coord *Coordinate
	for i := 0; i < n; i++ {
		outs, err := m.HandleCost(CostReport{Round: round, From: i, Cost: r.Float64() * 5})
		if err != nil {
			return false
		}
		for _, o := range outs {
			if o.Coordinate != nil {
				coord = o.Coordinate
			}
		}
	}
	if coord == nil {
		return false
	}
	done := false
	for i := 0; i < n; i++ {
		if i == coord.Straggler {
			continue
		}
		outs, err := m.HandleDecision(DecisionReport{Round: round, From: i, Next: 1 / float64(n)})
		if err != nil {
			return false
		}
		for _, o := range outs {
			if o.Assign != nil {
				done = true
			}
		}
	}
	return done
}

// TestPeerRejectsJunkWithoutPanic mirrors the master fuzz for the
// fully-distributed peer.
func TestPeerRejectsJunkWithoutPanic(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		p, err := NewPeer(0, simplex.Uniform(n))
		if err != nil {
			return false
		}
		for step := 0; step < 100; step++ {
			switch r.Intn(3) {
			case 0:
				//nolint:errcheck // junk may be legitimately rejected
				p.HandleShare(PeerShare{
					Round:      p.Round() + r.Intn(3) - 1,
					From:       r.Intn(n + 2),
					Cost:       r.Float64() * 10,
					LocalAlpha: r.Float64(),
				})
			case 1:
				//nolint:errcheck // junk may be legitimately rejected
				p.HandleDecision(PeerDecision{
					Round: p.Round() + r.Intn(3) - 1,
					From:  r.Intn(n + 2),
					To:    r.Intn(n),
					Next:  r.Float64(),
				})
			case 2:
				// Observe is only valid at the start of a round.
				//nolint:errcheck // may be out of phase
				p.Observe(r.Float64()*5, costfn.Affine{Slope: 1 + r.Float64()})
			}
			// The peer's own workload must remain a valid fraction at all
			// times, whatever garbage arrives.
			if p.X() < -1e-9 || p.X() > 1+1e-9 || math.IsNaN(p.X()) {
				return false
			}
		}
		return true
	}
	const quickSeed = 12
	if err := quick.Check(prop, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Errorf("quick seed %d: %v", quickSeed, err)
	}
}

// TestFarFutureFramesRejected pins the lookahead bound: one hostile frame
// for round 1e9 must be rejected, not parked in a buffer that never
// drains.
func TestFarFutureFramesRejected(t *testing.T) {
	const far = 1_000_000_000
	m, err := NewMaster(simplex.Uniform(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.HandleCost(CostReport{Round: far, From: 1, Cost: 1}); !errors.Is(err, ErrRejected) {
		t.Error("master accepted a cost report for round 1e9")
	}
	if _, err := m.HandleDecision(DecisionReport{Round: far, From: 1, Next: 0.5}); !errors.Is(err, ErrRejected) {
		t.Error("master accepted a decision for round 1e9")
	}
	for i, seen := range m.nextSeen {
		if seen {
			t.Errorf("master buffered a cost from worker %d", i)
		}
	}

	p, err := NewPeer(0, simplex.Uniform(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.HandleShare(PeerShare{Round: far, From: 1, Cost: 1, LocalAlpha: 0.1}); !errors.Is(err, ErrRejected) {
		t.Error("peer accepted a share for round 1e9")
	}
	if _, err := p.HandleDecision(PeerDecision{Round: far, From: 1, To: 0, Next: 0.5}); !errors.Is(err, ErrRejected) {
		t.Error("peer accepted a decision for round 1e9")
	}
	if len(p.pendingShares) != 0 || p.decCount != 0 {
		t.Errorf("peer buffered far-future frames: %d shares, %d decisions", len(p.pendingShares), p.decCount)
	}
}
