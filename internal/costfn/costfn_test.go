package costfn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAffineEval(t *testing.T) {
	tests := []struct {
		name string
		f    Affine
		x    float64
		want float64
	}{
		{"zero", Affine{}, 0.5, 0},
		{"slope only", Affine{Slope: 2}, 0.5, 1},
		{"intercept only", Affine{Intercept: 3}, 0.9, 3},
		{"both", Affine{Slope: 4, Intercept: 1}, 0.25, 2},
		{"at zero", Affine{Slope: 4, Intercept: 1}, 0, 1},
		{"at one", Affine{Slope: 4, Intercept: 1}, 1, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.f.Eval(tt.x); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Eval(%v) = %v, want %v", tt.x, got, tt.want)
			}
		})
	}
}

func TestAffineMaxWorkload(t *testing.T) {
	tests := []struct {
		name   string
		f      Affine
		l      float64
		lo, hi float64
		want   float64
		wantOK bool
	}{
		{"interior", Affine{Slope: 2, Intercept: 1}, 2, 0, 1, 0.5, true},
		{"clamped to hi", Affine{Slope: 2, Intercept: 1}, 10, 0, 1, 1, true},
		{"clamped to lo", Affine{Slope: 2, Intercept: 1}, 1, 0.3, 1, 0.3, false},
		{"exactly feasible at lo", Affine{Slope: 2, Intercept: 1}, 1.6, 0.3, 1, 0.3, true},
		{"flat function", Affine{Intercept: 1}, 2, 0, 1, 1, true},
		{"flat infeasible", Affine{Intercept: 3}, 2, 0, 1, 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := tt.f.MaxWorkload(tt.l, tt.lo, tt.hi)
			if ok != tt.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tt.wantOK)
			}
			if !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("MaxWorkload = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPowerEvalAndInverse(t *testing.T) {
	f := Power{Coeff: 3, Exponent: 2, Intercept: 1}
	if got := f.Eval(0.5); !almostEqual(got, 1.75, 1e-12) {
		t.Errorf("Eval(0.5) = %v, want 1.75", got)
	}
	x, ok := f.MaxWorkload(1.75, 0, 1)
	if !ok || !almostEqual(x, 0.5, 1e-12) {
		t.Errorf("MaxWorkload(1.75) = %v, %v; want 0.5, true", x, ok)
	}
	if _, ok := f.MaxWorkload(0.5, 0, 1); ok {
		t.Error("MaxWorkload below intercept should report infeasible")
	}
}

func TestPowerNegativeXClamped(t *testing.T) {
	f := Power{Coeff: 2, Exponent: 0.5, Intercept: 0}
	if got := f.Eval(-1); got != 0 {
		t.Errorf("Eval(-1) = %v, want 0 (clamped)", got)
	}
}

func TestInverseGenericBisection(t *testing.T) {
	// Wrap to hide the Inverter fast path and force bisection.
	wrap := funcOnly{Affine{Slope: 2, Intercept: 1}}
	x, ok, err := Inverse(wrap, 2, 0, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || !almostEqual(x, 0.5, 1e-9) {
		t.Errorf("Inverse = %v, %v; want 0.5, true", x, ok)
	}
}

// funcOnly hides any Inverter implementation of the wrapped function.
type funcOnly struct{ f Func }

func (w funcOnly) Eval(x float64) float64 { return w.f.Eval(x) }

func TestInverseInfeasible(t *testing.T) {
	x, ok, err := Inverse(funcOnly{Affine{Slope: 1, Intercept: 5}}, 2, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok || x != 0 {
		t.Errorf("Inverse infeasible = %v, %v; want 0, false", x, ok)
	}
}

func TestInverseWholeIntervalFeasible(t *testing.T) {
	x, ok, err := Inverse(funcOnly{Affine{Slope: 1}}, 5, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || x != 1 {
		t.Errorf("Inverse = %v, %v; want 1, true", x, ok)
	}
}

func TestInverseInvalidInterval(t *testing.T) {
	if _, _, err := Inverse(Affine{}, 1, 1, 0, 0); err == nil {
		t.Error("expected error for lo > hi")
	}
	if _, _, err := Inverse(Affine{}, 1, math.NaN(), 1, 0); err == nil {
		t.Error("expected error for NaN endpoint")
	}
	if _, _, err := Inverse(Affine{}, 1, 0, math.Inf(1), 0); err == nil {
		t.Error("expected error for infinite endpoint")
	}
}

func TestInverseFlatRegionReturnsSupremum(t *testing.T) {
	pl, err := NewPiecewiseLinear([]float64{0, 0.4, 0.6, 1}, []float64{0, 1, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	// f(x) = 1 on [0.4, 0.6]; max{x : f(x) <= 1} = 0.6.
	x, ok, err := Inverse(pl, 1, 0, 1, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || !almostEqual(x, 0.6, 1e-8) {
		t.Errorf("Inverse over flat region = %v, want 0.6", x)
	}
}

func TestNewPiecewiseLinearValidation(t *testing.T) {
	tests := []struct {
		name    string
		xs, ys  []float64
		wantErr bool
	}{
		{"ok", []float64{0, 1}, []float64{0, 2}, false},
		{"length mismatch", []float64{0, 1}, []float64{0}, true},
		{"too few knots", []float64{0}, []float64{0}, true},
		{"xs not increasing", []float64{0, 0}, []float64{0, 1}, true},
		{"ys decreasing", []float64{0, 1}, []float64{2, 1}, true},
		{"flat ys ok", []float64{0, 1}, []float64{2, 2}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewPiecewiseLinear(tt.xs, tt.ys)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestPiecewiseLinearEval(t *testing.T) {
	pl, err := NewPiecewiseLinear([]float64{0, 0.5, 1}, []float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct{ x, want float64 }{
		{0, 1}, {0.25, 1.5}, {0.5, 2}, {0.75, 3}, {1, 4},
		{-0.5, 0}, // extrapolates first slope (2): 1 - 0.5*2
		{1.5, 6},  // extrapolates last slope (4): 4 + 0.5*4
	}
	for _, tt := range tests {
		if got := pl.Eval(tt.x); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Eval(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestQuantizedEval(t *testing.T) {
	q := Quantized{Inner: Affine{Slope: 10}, Units: 4}
	tests := []struct{ x, want float64 }{
		{0, 0},
		{0.1, 2.5},  // rounds up to 1/4
		{0.25, 2.5}, // exact unit
		{0.26, 5},   // rounds up to 2/4
		{1, 10},
	}
	for _, tt := range tests {
		if got := q.Eval(tt.x); !almostEqual(got, tt.want, 1e-9) {
			t.Errorf("Eval(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestQuantizedZeroUnitsPassThrough(t *testing.T) {
	q := Quantized{Inner: Affine{Slope: 10}, Units: 0}
	if got := q.Eval(0.33); !almostEqual(got, 3.3, 1e-12) {
		t.Errorf("Eval = %v, want 3.3", got)
	}
}

func TestSumAndScaled(t *testing.T) {
	s := Sum{Affine{Slope: 1}, Affine{Slope: 2, Intercept: 1}}
	if got := s.Eval(0.5); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Sum.Eval = %v, want 2.5", got)
	}
	sc := Scaled{Inner: s, Factor: 2}
	if got := sc.Eval(0.5); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Scaled.Eval = %v, want 5", got)
	}
}

func TestLipschitzAffine(t *testing.T) {
	got := Lipschitz(Affine{Slope: 7, Intercept: 2}, 0, 1, 100)
	if !almostEqual(got, 7, 1e-9) {
		t.Errorf("Lipschitz = %v, want 7", got)
	}
}

func TestLipschitzDegenerate(t *testing.T) {
	if got := Lipschitz(Affine{Slope: 7}, 1, 0, 100); got != 0 {
		t.Errorf("Lipschitz on empty interval = %v, want 0", got)
	}
	if got := Lipschitz(Affine{Slope: 7}, 0, 1, 0); got != 0 {
		t.Errorf("Lipschitz with n=0 = %v, want 0", got)
	}
}

// Property: for random increasing piecewise-linear functions and random
// levels, the generic bisection inverse x satisfies f(x) <= l and
// f(x + 2*tol) > l whenever x is interior.
func TestInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nk := 2 + r.Intn(6)
		xs := make([]float64, nk)
		ys := make([]float64, nk)
		xs[0], ys[0] = 0, r.Float64()
		for k := 1; k < nk; k++ {
			xs[k] = xs[k-1] + 0.05 + r.Float64()
			ys[k] = ys[k-1] + r.Float64()*3
		}
		// Normalize domain to [0,1].
		for k := range xs {
			xs[k] /= xs[nk-1]
		}
		pl, err := NewPiecewiseLinear(xs, ys)
		if err != nil {
			return false
		}
		l := ys[0] + r.Float64()*(ys[nk-1]-ys[0])
		const tol = 1e-9
		x, ok, err := Inverse(funcOnly{pl}, l, 0, 1, tol)
		if err != nil || !ok {
			return false
		}
		if pl.Eval(x) > l+1e-7 {
			return false
		}
		if x+2*tol < 1 && pl.Eval(x+1e-6) < l-1e-7 {
			// x should be (nearly) maximal: stepping right must not stay
			// strictly below the level by a margin.
			return almostEqual(pl.Eval(x+1e-6), l, 1e-5)
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the affine closed-form inverse agrees with generic bisection.
func TestAffineInverseMatchesBisection(t *testing.T) {
	prop := func(slopeSeed, levelSeed uint8) bool {
		slope := 0.1 + float64(slopeSeed)/16
		intercept := float64(levelSeed % 5)
		f := Affine{Slope: slope, Intercept: intercept}
		l := intercept + float64(levelSeed)/32*slope
		fast, okFast := f.MaxWorkload(l, 0, 1)
		slow, okSlow, err := Inverse(funcOnly{f}, l, 0, 1, 1e-12)
		if err != nil {
			return false
		}
		return okFast == okSlow && almostEqual(fast, slow, 1e-7)
	}
	const quickSeed = 15
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Errorf("quick seed %d: %v", quickSeed, err)
	}
}
