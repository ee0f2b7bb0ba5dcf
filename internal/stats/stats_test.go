package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of single sample should be NaN")
	}
	got := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-4.571428571428571) > 1e-12 {
		t.Errorf("Variance = %v, want 4.5714...", got)
	}
	if sd := StdDev([]float64{1, 1, 1}); sd != 0 {
		t.Errorf("StdDev of constants = %v, want 0", sd)
	}
}

func TestSummarize(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Error("Summarize(nil) should error")
	}
	s, err := Summarize([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 1 || s.Mean != 5 || s.HalfCI95 != 0 {
		t.Errorf("single-sample summary = %+v", s)
	}
	s, err = Summarize([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 2.5 {
		t.Errorf("Mean = %v, want 2.5", s.Mean)
	}
	wantHalf := 1.959963984540054 * s.StdDev / 2
	if math.Abs(s.HalfCI95-wantHalf) > 1e-12 {
		t.Errorf("HalfCI95 = %v, want %v", s.HalfCI95, wantHalf)
	}
}

func TestPercentile(t *testing.T) {
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("empty percentile should error")
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Error("negative p should error")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Error("p > 100 should error")
	}
	xs := []float64{4, 1, 3, 2}
	tests := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Error("Percentile mutated its input")
	}
	got, err := Percentile([]float64{7}, 50)
	if err != nil || got != 7 {
		t.Errorf("single-sample percentile = %v, %v", got, err)
	}
}

// percentileBySort is the sort-based definition Percentile implemented
// before selection replaced the full sort: sort a copy, then interpolate
// linearly between the closest ranks. Percentile must agree with it.
func percentileBySort(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of [0, 100]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// samePercentile reports whether two percentiles agree under ==, with
// NaN matching NaN. Neither algorithm orders equal keys, so -0 and +0
// may trade places; == already treats them as equal.
func samePercentile(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// checkPercentileMatchesSort compares Percentile with the sort-based
// reference on xs at p, and checks that xs is left as it was. name
// identifies the input in a failure.
func checkPercentileMatchesSort(t *testing.T, name string, xs []float64, p float64) {
	t.Helper()
	before := make([]uint64, len(xs))
	for i, x := range xs {
		before[i] = math.Float64bits(x)
	}
	got, err := Percentile(xs, p)
	want, wantErr := percentileBySort(xs, p)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s (n=%d) p=%v: error %v, reference error %v", name, len(xs), p, err, wantErr)
	}
	if !samePercentile(got, want) {
		t.Fatalf("%s (n=%d) p=%v: got %v, sort-based reference %v", name, len(xs), p, got, want)
	}
	for i, x := range xs {
		if math.Float64bits(x) != before[i] {
			t.Fatalf("%s (n=%d) p=%v: input modified at %d: %v -> %v", name, len(xs), p, i, math.Float64frombits(before[i]), x)
		}
	}
}

// TestPercentileMatchesSort is a seeded property test of the selection
// against the sort-based reference: sizes 1-300, values drawn from a
// few duplicate-heavy and special-value mixes (±Inf, NaN, ±0), at the
// fixed percentiles the repository reports plus random ones.
func TestPercentileMatchesSort(t *testing.T) {
	const seed = 20261017
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %d", seed)
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)}
	draw := func(mix int) float64 {
		switch mix {
		case 0: // continuous
			return rng.NormFloat64()
		case 1: // heavy duplicates
			return float64(rng.Intn(4))
		case 2: // duplicates with special values
			if rng.Intn(4) == 0 {
				return special[rng.Intn(len(special))]
			}
			return float64(rng.Intn(8)) - 4
		default: // latencies: exponential, some repeated
			return rng.ExpFloat64()
		}
	}
	fixed := []float64{0, 1, 50, 99, 99.9, 100}
	// Structured orders that degrade naive pivots, at sizes up to a
	// serving job's request count.
	for _, n := range []int{17, 64, 301, 1000, 6000} {
		shapes := map[string]func(i int) float64{
			"organ pipe": func(i int) float64 { return float64(min(i, n-1-i)) },
			"sawtooth":   func(i int) float64 { return float64(i % 7) },
			"constant":   func(int) float64 { return 1 },
			"alternating": func(i int) float64 {
				if i%2 == 0 {
					return float64(i)
				}
				return float64(n - i)
			},
		}
		for name, shape := range shapes {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = shape(i)
			}
			for _, p := range fixed {
				checkPercentileMatchesSort(t, name, xs, p)
			}
		}
	}
	for n := 1; n <= 300; n++ {
		for mix := 0; mix < 4; mix++ {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = draw(mix)
			}
			switch rng.Intn(4) {
			case 0:
				sort.Float64s(xs) // already ascending
			case 1:
				sort.Sort(sort.Reverse(sort.Float64Slice(xs))) // descending
			}
			name := fmt.Sprintf("mix %d %v", mix, xs)
			for _, p := range fixed {
				checkPercentileMatchesSort(t, name, xs, p)
			}
			for r := 0; r < 4; r++ {
				checkPercentileMatchesSort(t, name, xs, 100*rng.Float64())
			}
		}
	}
}

// TestPercentileRejectsNaNRank checks that a NaN percentile is out of
// range rather than an index into the data.
func TestPercentileRejectsNaNRank(t *testing.T) {
	for _, xs := range [][]float64{{1}, {1, 2, 3}} {
		if _, err := Percentile(xs, math.NaN()); err == nil {
			t.Errorf("Percentile(%v, NaN) accepted", xs)
		}
	}
}

// FuzzPercentile checks Percentile against the sort-based reference on
// arbitrary float64 data (the bytes, eight at a time) and percentiles.
func FuzzPercentile(f *testing.F) {
	f.Add([]byte{}, 50.0)
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1)), 99.0)
	seed := []byte{}
	for _, x := range []float64{3, math.NaN(), -1, math.Inf(1), 3, 0, math.Copysign(0, -1), 2} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(x))
	}
	f.Add(seed, 99.9)
	f.Add(seed, 37.5)
	f.Fuzz(func(t *testing.T, data []byte, p float64) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if !(p >= 0 && p <= 100) {
			if _, err := Percentile(xs, p); err == nil {
				t.Fatalf("Percentile(_, %v) accepted an out-of-range percentile", p)
			}
			return
		}
		checkPercentileMatchesSort(t, fmt.Sprint(xs), xs, p)
	})
}

func TestSeriesAggregate(t *testing.T) {
	if _, err := SeriesAggregate(nil); err == nil {
		t.Error("empty aggregate should error")
	}
	if _, err := SeriesAggregate([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged realizations should error")
	}
	out, err := SeriesAggregate([][]float64{{1, 10}, {3, 20}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Mean != 2 || out[1].Mean != 15 {
		t.Errorf("aggregate = %+v", out)
	}
}

func TestCumSum(t *testing.T) {
	got := CumSum([]float64{1, 2, 3})
	want := []float64{1, 3, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("CumSum[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if len(CumSum(nil)) != 0 {
		t.Error("CumSum(nil) should be empty")
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(50)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
			w.Add(xs[i])
		}
		if w.N() != n {
			return false
		}
		return math.Abs(w.Mean()-Mean(xs)) < 1e-9 &&
			math.Abs(w.Variance()-Variance(xs)) < 1e-7
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.Variance()) {
		t.Error("empty Welford should report NaN")
	}
	w.Add(1)
	if !math.IsNaN(w.Variance()) {
		t.Error("single-sample Welford variance should be NaN")
	}
	s := w.Summary()
	if s.N != 1 || s.Mean != 1 || s.HalfCI95 != 0 {
		t.Errorf("summary = %+v", s)
	}
}
