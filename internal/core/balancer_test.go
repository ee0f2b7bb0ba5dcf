package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dolbie/internal/costfn"
	"dolbie/internal/simplex"
)

// affineObs builds an Observation for affine local costs evaluated at x.
func affineObs(t *testing.T, funcs []costfn.Affine, x []float64) Observation {
	t.Helper()
	obs := Observation{
		Costs: make([]float64, len(funcs)),
		Funcs: make([]costfn.Func, len(funcs)),
	}
	for i, f := range funcs {
		obs.Costs[i] = f.Eval(x[i])
		obs.Funcs[i] = f
	}
	return obs
}

func TestNewBalancerValidation(t *testing.T) {
	if _, err := NewBalancer(nil); err == nil {
		t.Error("empty partition should error")
	}
	if _, err := NewBalancer([]float64{0.4, 0.4}); err == nil {
		t.Error("infeasible partition should error")
	}
	if _, err := NewBalancer(simplex.Uniform(3), WithInitialAlpha(1.5)); err == nil {
		t.Error("alpha > 1 should error")
	}
}

func TestInitialAlphaRule(t *testing.T) {
	// alpha_1 = min_i x_i / (N - 2 + min_i x_i).
	x := []float64{0.2, 0.3, 0.5}
	want := 0.2 / (1 + 0.2)
	if got := InitialAlpha(x); math.Abs(got-want) > 1e-12 {
		t.Errorf("InitialAlpha = %v, want %v", got, want)
	}
	if got := InitialAlpha([]float64{1}); got != 1 {
		t.Errorf("InitialAlpha(N=1) = %v, want 1", got)
	}
	// N = 2: min/(0 + min) = 1.
	if got := InitialAlpha([]float64{0.5, 0.5}); got != 1 {
		t.Errorf("InitialAlpha(N=2) = %v, want 1", got)
	}
}

func TestAlphaCap(t *testing.T) {
	if got := AlphaCap(0.5, 3); math.Abs(got-0.5/1.5) > 1e-12 {
		t.Errorf("AlphaCap = %v, want 1/3", got)
	}
	if got := AlphaCap(-1, 3); got != 0 {
		t.Errorf("AlphaCap negative xs = %v, want 0", got)
	}
	if got := AlphaCap(0.3, 1); got != 1 {
		t.Errorf("AlphaCap N=1 = %v, want 1", got)
	}
}

func TestBalancerSingleRoundKnownValues(t *testing.T) {
	// Two fast workers, one slow straggler. Hand-computed update.
	x0 := []float64{0.25, 0.25, 0.5}
	b, err := NewBalancer(x0, WithInitialAlpha(0.1))
	if err != nil {
		t.Fatal(err)
	}
	funcs := []costfn.Affine{{Slope: 1}, {Slope: 2}, {Slope: 10}}
	// Costs: 0.25, 0.5, 5.0. Straggler = 2, l = 5.
	// x'_0 = min(5/1, 1) = 1; x'_1 = min(5/2, 1) = 1.
	// x_0' update: 0.25 + 0.1*(1-0.25) = 0.325
	// x_1' update: 0.25 + 0.1*(1-0.25) = 0.325
	// x_2 = 1 - 0.65 = 0.35
	rep, err := b.Step(affineObs(t, funcs, x0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Straggler != 2 {
		t.Errorf("straggler = %d, want 2", rep.Straggler)
	}
	if rep.GlobalCost != 5 {
		t.Errorf("global cost = %v, want 5", rep.GlobalCost)
	}
	want := []float64{0.325, 0.325, 0.35}
	for i := range want {
		if math.Abs(rep.Next[i]-want[i]) > 1e-9 {
			t.Errorf("next[%d] = %v, want %v", i, rep.Next[i], want[i])
		}
	}
	// Step-size rule: alpha_2 = min(0.1, 0.35/(1 + 0.35)).
	wantAlpha := 0.35 / 1.35
	if wantAlpha > 0.1 {
		wantAlpha = 0.1
	}
	if math.Abs(b.Alpha()-wantAlpha) > 1e-12 {
		t.Errorf("alpha = %v, want %v", b.Alpha(), wantAlpha)
	}
}

func TestBalancerStragglerTieBreaksLowestIndex(t *testing.T) {
	x0 := simplex.Uniform(3)
	b, err := NewBalancer(x0)
	if err != nil {
		t.Fatal(err)
	}
	funcs := []costfn.Affine{{Slope: 3}, {Slope: 3}, {Slope: 3}}
	rep, err := b.Step(affineObs(t, funcs, x0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Straggler != 0 {
		t.Errorf("tie straggler = %d, want 0", rep.Straggler)
	}
}

func TestBalancerRandomTieBreak(t *testing.T) {
	x0 := simplex.Uniform(3)
	funcs := []costfn.Affine{{Slope: 3}, {Slope: 3}, {Slope: 3}}
	seen := map[int]bool{}
	for seed := int64(0); seed < 20; seed++ {
		b, err := NewBalancer(x0, WithRandomTieBreak(seed))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := b.Step(affineObs(t, funcs, x0))
		if err != nil {
			t.Fatal(err)
		}
		seen[rep.Straggler] = true
	}
	if len(seen) < 2 {
		t.Errorf("random tie break never varied: %v", seen)
	}
}

func TestBalancerConvergesOnStaticHeterogeneousCosts(t *testing.T) {
	// Static affine costs: DOLBIE should drive the global cost toward the
	// static optimum, where all per-worker costs equalize.
	funcs := []costfn.Affine{
		{Slope: 1, Intercept: 0.1},
		{Slope: 4, Intercept: 0.2},
		{Slope: 8, Intercept: 0.1},
		{Slope: 2, Intercept: 0.4},
	}
	x0 := simplex.Uniform(len(funcs))
	b, err := NewBalancer(x0)
	if err != nil {
		t.Fatal(err)
	}
	first := math.NaN()
	var last float64
	for round := 0; round < 400; round++ {
		x := b.Assignment()
		obs := Observation{Costs: make([]float64, len(funcs)), Funcs: make([]costfn.Func, len(funcs))}
		for i, f := range funcs {
			obs.Costs[i] = f.Eval(x[i])
			obs.Funcs[i] = f
		}
		rep, err := b.Step(obs)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(first) {
			first = rep.GlobalCost
		}
		last = rep.GlobalCost
	}
	if last >= first {
		t.Errorf("global cost did not decrease: first %v, last %v", first, last)
	}
	// The static optimum for these costs is below 0.81 (water-filling);
	// DOLBIE should get close after 400 rounds.
	if last > 0.95 {
		t.Errorf("final global cost %v too far from optimum", last)
	}
}

func TestBalancerDimensionAndNilChecks(t *testing.T) {
	b, err := NewBalancer(simplex.Uniform(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Update(Observation{Costs: []float64{1}, Funcs: []costfn.Func{costfn.Affine{}}}); err == nil {
		t.Error("short costs should error")
	}
	if err := b.Update(Observation{Costs: []float64{1, 2}, Funcs: []costfn.Func{costfn.Affine{}, nil}}); err == nil {
		t.Error("nil func should error")
	}
}

func TestBalancerSingleWorkerNoOp(t *testing.T) {
	b, err := NewBalancer([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Step(Observation{Costs: []float64{7}, Funcs: []costfn.Func{costfn.Affine{Slope: 7}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Next[0] != 1 {
		t.Errorf("single worker next = %v, want 1", rep.Next[0])
	}
}

func TestBalancerReset(t *testing.T) {
	b, err := NewBalancer(simplex.Uniform(3), WithInitialAlpha(0.01))
	if err != nil {
		t.Fatal(err)
	}
	funcs := []costfn.Affine{{Slope: 1}, {Slope: 2}, {Slope: 3}}
	if _, err := b.Step(affineObs(t, funcs, b.Assignment())); err != nil {
		t.Fatal(err)
	}
	if b.Round() != 1 {
		t.Fatalf("round = %d, want 1", b.Round())
	}
	if err := b.Reset(simplex.Uniform(3)); err != nil {
		t.Fatal(err)
	}
	if b.Round() != 0 || b.Alpha() != 0.01 {
		t.Errorf("after reset: round %d alpha %v", b.Round(), b.Alpha())
	}
	if err := b.Reset(simplex.Uniform(4)); err == nil {
		t.Error("reset with wrong dimension should error")
	}
	if err := b.Reset([]float64{0.9, 0.9, -0.8}); err == nil {
		t.Error("reset with infeasible partition should error")
	}
}

func TestBalancerName(t *testing.T) {
	b, _ := NewBalancer(simplex.Uniform(2))
	if b.Name() != "DOLBIE" {
		t.Errorf("default name = %q", b.Name())
	}
	b, _ = NewBalancer(simplex.Uniform(2), WithName("DOLBIE-mw"))
	if b.Name() != "DOLBIE-mw" {
		t.Errorf("custom name = %q", b.Name())
	}
}

func TestGlobalCost(t *testing.T) {
	funcs := []costfn.Func{costfn.Affine{Slope: 2}, costfn.Affine{Slope: 1, Intercept: 3}}
	g, costs, err := GlobalCost(funcs, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if g != 3.5 || costs[0] != 1 || costs[1] != 3.5 {
		t.Errorf("GlobalCost = %v, costs %v", g, costs)
	}
	if _, _, err := GlobalCost(funcs, []float64{1}); err == nil {
		t.Error("dimension mismatch should error")
	}
	if _, _, err := GlobalCost([]costfn.Func{nil}, []float64{1}); err == nil {
		t.Error("nil func should error")
	}
}

// randomInstance generates a random online instance: N workers with
// time-varying affine costs, T rounds.
type randomInstance struct {
	n, t  int
	funcs [][]costfn.Affine // [round][worker]
	x0    []float64
}

func makeRandomInstance(r *rand.Rand) randomInstance {
	n := 2 + r.Intn(8)
	T := 1 + r.Intn(40)
	inst := randomInstance{n: n, t: T}
	inst.funcs = make([][]costfn.Affine, T)
	for t := range inst.funcs {
		inst.funcs[t] = make([]costfn.Affine, n)
		for i := range inst.funcs[t] {
			inst.funcs[t][i] = costfn.Affine{
				Slope:     0.1 + r.Float64()*10,
				Intercept: r.Float64(),
			}
		}
	}
	// Random feasible starting point.
	x0 := make([]float64, n)
	var s float64
	for i := range x0 {
		x0[i] = 0.05 + r.ExpFloat64()
		s += x0[i]
	}
	for i := range x0 {
		x0[i] /= s
	}
	inst.x0 = x0
	return inst
}

// TestBalancerInvariantsProperty verifies the paper's three structural
// invariants on random instances:
//  1. x_t stays on the simplex every round (constraints (2)-(3)),
//  2. alpha_t is non-increasing (rule (7)),
//  3. non-stragglers never lose workload (risk-averse assistance only
//     ever moves work away from the straggler).
func TestBalancerInvariantsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := makeRandomInstance(r)
		b, err := NewBalancer(inst.x0)
		if err != nil {
			return false
		}
		prevAlpha := b.Alpha()
		for round := 0; round < inst.t; round++ {
			x := simplex.Clone(b.Assignment())
			obs := Observation{Costs: make([]float64, inst.n), Funcs: make([]costfn.Func, inst.n)}
			for i, f := range inst.funcs[round][:inst.n] {
				obs.Costs[i] = f.Eval(x[i])
				obs.Funcs[i] = f
			}
			rep, err := b.Step(obs)
			if err != nil {
				return false
			}
			if simplex.Check(rep.Next, 1e-7) != nil {
				return false
			}
			if b.Alpha() > prevAlpha+1e-15 {
				return false
			}
			prevAlpha = b.Alpha()
			for i := range rep.Next {
				if i != rep.Straggler && rep.Next[i] < x[i]-1e-12 {
					return false
				}
			}
			// The straggler never gains workload.
			if rep.Next[rep.Straggler] > x[rep.Straggler]+1e-12 {
				return false
			}
		}
		return true
	}
	const quickSeed = 13
	if err := quick.Check(prop, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Errorf("quick seed %d: %v", quickSeed, err)
	}
}

// TestBalancerGlobalCostNeverExplodes checks the risk-averse property on
// static costs: moving toward x' with the feasibility-capped step cannot
// make a non-straggler exceed the previous global cost.
func TestBalancerRiskAverseOnStaticCosts(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		funcs := make([]costfn.Func, n)
		for i := range funcs {
			funcs[i] = costfn.Affine{Slope: 0.1 + r.Float64()*5, Intercept: r.Float64() * 0.3}
		}
		b, err := NewBalancer(simplex.Uniform(n))
		if err != nil {
			return false
		}
		prevGlobal := math.Inf(1)
		for round := 0; round < 30; round++ {
			x := b.Assignment()
			g, costs, err := GlobalCost(funcs, x)
			if err != nil {
				return false
			}
			// On static costs the global cost must be non-increasing:
			// non-stragglers stay at or below the old global cost by the
			// definition of x', and the straggler's workload shrinks.
			if g > prevGlobal+1e-9 {
				return false
			}
			prevGlobal = g
			if err := b.Update(Observation{Costs: costs, Funcs: funcs}); err != nil {
				return false
			}
		}
		return true
	}
	const quickSeed = 14
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Errorf("quick seed %d: %v", quickSeed, err)
	}
}

func TestBalancerAblationAggressive(t *testing.T) {
	// With the aggressive update the applied step is 1 (subject to the
	// exact guard), so non-stragglers jump straight to x'.
	funcs := []costfn.Affine{{Slope: 1}, {Slope: 1}, {Slope: 20}}
	x0 := simplex.Uniform(3)
	b, err := NewBalancer(x0, WithAggressiveUpdate())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Step(affineObs(t, funcs, x0))
	if err != nil {
		t.Fatal(err)
	}
	// l = 20/3; x'_0 = x'_1 = 1 (capped); share = 2*(1 - 1/3) = 4/3 but
	// straggler only has 1/3 => guard caps applied at (1/3)/(4/3) = 0.25.
	if math.Abs(rep.Applied-0.25) > 1e-9 {
		t.Errorf("applied = %v, want 0.25", rep.Applied)
	}
	if err := simplex.Check(rep.Next, 1e-9); err != nil {
		t.Errorf("aggressive update left the simplex: %v", err)
	}
	if rep.Next[2] > 1e-9 {
		t.Errorf("straggler workload = %v, want 0 under aggressive update", rep.Next[2])
	}
}

func TestBalancerAblationConstantAlpha(t *testing.T) {
	funcs := []costfn.Affine{{Slope: 1}, {Slope: 2}, {Slope: 10}}
	b, err := NewBalancer(simplex.Uniform(3), WithInitialAlpha(0.05), WithConstantAlpha())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		if err := b.Update(affineObs(t, funcs, b.Assignment())); err != nil {
			t.Fatal(err)
		}
		if b.Alpha() != 0.05 {
			t.Fatalf("round %d: alpha = %v, want constant 0.05", round, b.Alpha())
		}
	}
}
