package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 0.5, 2.2, 9.9, 4.4, 1.0, 7.5, 6.6, 8.8, 5.0, 2.0}, 2.0, 7.5},
		{[]float64{5, 1, 3}, 1.0, 5.0},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {100, 40}, {99, 39.7}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its input in place")
	}
	if median(nil) != 0 || mean(nil) != 0 {
		t.Error("empty input should give 0")
	}
}

func TestHistQuantileWithinResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := newHist()
	var xs []float64
	for i := 0; i < 100000; i++ {
		v := int64(rng.ExpFloat64() * 50_000) // ns, spanning exact and log buckets
		h.add(v)
		xs = append(xs, float64(v))
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := xs[int(math.Ceil(q*float64(len(xs))))-1]
		got := h.quantile(q)
		if math.Abs(got-want) > 1e-3*want+1 {
			t.Errorf("q%v = %v, want %v within 0.1%%", q, got, want)
		}
	}
	// Small values are exact; huge ones saturate into the last bucket.
	e := newHist()
	e.add(1234)
	if e.quantile(0.5) != 1234 {
		t.Errorf("exact bucket gave %v", e.quantile(0.5))
	}
	e.add(math.MaxInt64)
	if e.quantile(1) < 2e12 { // the top bucket, about 36 minutes
		t.Errorf("saturated bucket gave %v", e.quantile(1))
	}
	m := newHist()
	m.merge(h)
	if m.n != h.n || m.quantile(0.5) != h.quantile(0.5) {
		t.Error("merge lost samples")
	}
	m.reset()
	if m.n != 0 || m.quantile(0.5) != 0 {
		t.Error("reset kept samples")
	}
}

func TestHistBucketsAreMonotone(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<24; v = v*17/16 + 1 {
		b := histBucket(v)
		if b < prev {
			t.Fatalf("bucket(%d) = %d < previous %d", v, b, prev)
		}
		if lo := histValue(b); math.Abs(lo-float64(v)) > float64(v)/1000+1 {
			t.Fatalf("bucket(%d) value %v is off by more than 0.1%%", v, lo)
		}
		prev = b
	}
}

func TestReferenceAdjustment(t *testing.T) {
	// A host running 25% slow stretches the kernel and the op alike;
	// the adjustment maps both back to the nominal host.
	slow := refNominalMS * 1.25
	if got := adjustTime(125, slow); math.Abs(got-100) > 1e-9 {
		t.Errorf("adjustTime = %v, want 100", got)
	}
	if got := adjustRate(800, slow); math.Abs(got-1000) > 1e-9 {
		t.Errorf("adjustRate = %v, want 1000", got)
	}
	if got := adjustTime(5, 0); got != 5 {
		t.Errorf("adjustTime with no reference = %v, want unchanged", got)
	}
}
