package optimum

import (
	"math"
	"testing"

	"dolbie/internal/costfn"
)

func TestObjectiveParseRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Objective
	}{
		{"minmax", MinMax()},
		{"max", MinMax()},
		{"makespan", MinMax()},
		{"MINMAX", MinMax()},
		{"l2", Lp(2)},
		{"L2", Lp(2)},
		{"lp2", Lp(2)},
		{"l1.5", Lp(1.5)},
		{"l1", Lp(1)},
	}
	for _, c := range cases {
		var got Objective
		if err := got.UnmarshalText([]byte(c.in)); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("UnmarshalText(%q) = %v, want %v", c.in, got, c.want)
		}
		// Text round trip.
		b, err := got.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText(%v): %v", got, err)
		}
		var back Objective
		if err := back.UnmarshalText(b); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", b, err)
		}
		if back != got {
			t.Fatalf("round trip %q -> %q -> %v, want %v", c.in, b, back, got)
		}
	}
	for _, bad := range []string{"", "l0.5", "l-2", "lnan", "huh", "l"} {
		if err := new(Objective).UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) succeeded, want error", bad)
		}
	}
}

func TestObjectiveValidate(t *testing.T) {
	if err := MinMax().Validate(); err != nil {
		t.Fatalf("minmax invalid: %v", err)
	}
	if err := Lp(1).Validate(); err != nil {
		t.Fatalf("l1 invalid: %v", err)
	}
	for _, p := range []float64{0.5, -1, math.NaN(), math.Inf(1)} {
		if err := Lp(p).Validate(); err == nil {
			t.Errorf("Lp(%v).Validate() = nil, want error", p)
		}
	}
}

func TestObjectiveGlobal(t *testing.T) {
	costs := []float64{3, 4}
	if got := MinMax().Global(costs); got != 4 {
		t.Errorf("minmax global = %v, want 4", got)
	}
	if got := Lp(2).Global(costs); math.Abs(got-5) > 1e-12 {
		t.Errorf("l2 global = %v, want 5", got)
	}
	if got := Lp(1).Global(costs); math.Abs(got-7) > 1e-12 {
		t.Errorf("l1 global = %v, want 7", got)
	}
	// Large p approaches the max.
	if got := Lp(64).Global(costs); math.Abs(got-4) > 0.1 {
		t.Errorf("l64 global = %v, want ~4", got)
	}
	if got := Lp(2).Global(nil); got != 0 {
		t.Errorf("empty global = %v, want 0", got)
	}
}

func TestSolveLpSymmetric(t *testing.T) {
	// Two identical linear costs under l2: the minimizer splits evenly.
	funcs := []costfn.Func{costfn.Affine{Slope: 1}, costfn.Affine{Slope: 1}}
	res, err := SolveLp(funcs, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-0.5) > 1e-4 || math.Abs(res.X[1]-0.5) > 1e-4 {
		t.Fatalf("X = %v, want [0.5 0.5]", res.X)
	}
	want := math.Sqrt(0.5*0.5 + 0.5*0.5)
	if math.Abs(res.Value-want) > 1e-4 {
		t.Fatalf("Value = %v, want %v", res.Value, want)
	}
}

func TestSolveLpAsymmetricClosedForm(t *testing.T) {
	// min (ax)^2 + (by)^2 with x+y=1 has x* = b^2/(a^2+b^2).
	a, b := 1.0, 3.0
	funcs := []costfn.Func{costfn.Affine{Slope: a}, costfn.Affine{Slope: b}}
	res, err := SolveLp(funcs, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantX := b * b / (a*a + b*b)
	if math.Abs(res.X[0]-wantX) > 1e-3 {
		t.Fatalf("X[0] = %v, want %v", res.X[0], wantX)
	}
	var sum float64
	for _, xi := range res.X {
		if xi < 0 {
			t.Fatalf("negative coordinate in %v", res.X)
		}
		sum += xi
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("sum(X) = %v, want 1", sum)
	}
}

func TestSolveLpBeatsGrid(t *testing.T) {
	// The solver's value is no worse than a fine grid search on two
	// heterogeneous convex costs, for several orders p.
	funcs := []costfn.Func{
		costfn.Affine{Slope: 2, Intercept: 0.1},
		costfn.Power{Coeff: 1.5, Exponent: 2, Intercept: 0.3},
	}
	for _, p := range []float64{1, 1.5, 2, 4} {
		res, err := SolveLp(funcs, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		for k := 0; k <= 2000; k++ {
			x := float64(k) / 2000
			v := Lp(p).Global([]float64{funcs[0].Eval(x), funcs[1].Eval(1 - x)})
			if v < best {
				best = v
			}
		}
		if res.Value > best+1e-3 {
			t.Errorf("p=%v: Value = %v exceeds grid best %v", p, res.Value, best)
		}
	}
}

func TestSolveLpLargePApproachesMinMax(t *testing.T) {
	funcs := []costfn.Func{
		costfn.Affine{Slope: 1, Intercept: 0.2},
		costfn.Affine{Slope: 4, Intercept: 0.1},
		costfn.Affine{Slope: 2, Intercept: 0.5},
	}
	mm, err := Solve(funcs, 0)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := SolveLp(funcs, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The l32 minimizer's makespan is close to the min-max optimum.
	worst := math.Inf(-1)
	for i, f := range funcs {
		if v := f.Eval(lp.X[i]); v > worst {
			worst = v
		}
	}
	if worst > mm.Value*1.1 {
		t.Fatalf("l32 makespan %v far above min-max optimum %v", worst, mm.Value)
	}
}

func TestSolveLpEdgeCases(t *testing.T) {
	if _, err := SolveLp(nil, 2, 0); err == nil {
		t.Error("no workers accepted")
	}
	if _, err := SolveLp([]costfn.Func{nil}, 2, 0); err == nil {
		t.Error("nil func accepted")
	}
	if _, err := SolveLp([]costfn.Func{costfn.Affine{Slope: 1}}, 0.5, 0); err == nil {
		t.Error("p < 1 accepted")
	}
	res, err := SolveLp([]costfn.Func{costfn.Affine{Slope: 2, Intercept: 1}}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.X[0] != 1 || res.Value != 3 {
		t.Fatalf("single worker: %+v, want X=[1] Value=3", res)
	}
	// Constant costs: any allocation is optimal; result must be feasible.
	res, err = SolveLp([]costfn.Func{costfn.Affine{Intercept: 1}, costfn.Affine{Intercept: 1}}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.X[0] + res.X[1]
	if math.Abs(sum-1) > 1e-6 || res.X[0] < 0 || res.X[1] < 0 {
		t.Fatalf("constant costs: X = %v not on simplex", res.X)
	}
}

func TestObjectiveSolveDispatch(t *testing.T) {
	funcs := []costfn.Func{costfn.Affine{Slope: 1}, costfn.Affine{Slope: 3}}
	mm, err := MinMax().Solve(funcs, 0)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Solve(funcs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mm.Value-direct.Value) > 1e-12 {
		t.Fatalf("minmax dispatch: %v vs %v", mm.Value, direct.Value)
	}
	if _, err := Lp(0.2).Solve(funcs, 0); err == nil {
		t.Error("invalid objective solved")
	}
}
