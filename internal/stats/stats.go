// Package stats provides the aggregation primitives used by the
// experiment harness: means, standard deviations, 95% confidence
// intervals over independent realizations (matching Figs. 4-5 and 11 of
// the paper, which report 95% CIs over 100 realizations of processor
// sampling), percentiles, and per-round series aggregation.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// z95 is the two-sided 95% normal quantile used for confidence intervals,
// matching the paper's "95% CI" error bars over 100 realizations.
const z95 = 1.959963984540054

// ErrEmpty is returned when a computation requires at least one sample.
var ErrEmpty = errors.New("stats: no samples")

// Mean returns the arithmetic mean of xs, or NaN when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance, or NaN when fewer than
// two samples are available.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Summary describes a set of samples with its mean and the half-width of
// a 95% confidence interval on the mean.
type Summary struct {
	N        int
	Mean     float64
	StdDev   float64
	HalfCI95 float64
}

// Summarize computes a Summary. With a single sample the CI half-width is
// zero; with none it returns ErrEmpty.
func Summarize(xs []float64) (Summary, error) {
	n := len(xs)
	if n == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: n, Mean: Mean(xs)}
	if n >= 2 {
		s.StdDev = StdDev(xs)
		s.HalfCI95 = z95 * s.StdDev / math.Sqrt(float64(n))
	}
	return s, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks of xs in ascending order, with NaN
// ordered first as sort.Float64s orders it. It selects the two ranks on
// a copy in O(n) expected time (O(n log n) worst case) instead of
// sorting, and leaves xs untouched. A NaN p is out of range.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if !(p >= 0 && p <= 100) {
		return 0, fmt.Errorf("stats: percentile %v out of [0, 100]", p)
	}
	if len(xs) == 1 {
		return xs[0], nil
	}
	// Copy with the NaNs moved to the front, where the order puts them;
	// the rest, NaN-free, can be selected with plain comparisons.
	buf := make([]float64, len(xs))
	nans, top := 0, len(xs)
	for _, x := range xs {
		if x != x {
			buf[nans] = x
			nans++
		} else {
			top--
			buf[top] = x
		}
	}
	rank := p / 100 * float64(len(buf)-1)
	lo := int(math.Floor(rank))
	if lo < nans {
		// A NaN at rank lo makes the interpolation NaN too.
		return buf[lo], nil
	}
	selectRank(buf[nans:], lo-nans)
	frac := rank - float64(lo)
	if frac == 0 {
		return buf[lo], nil
	}
	// Rank lo+1 is the least value above the selected rank.
	hi := buf[lo+1]
	for _, x := range buf[lo+2:] {
		if x < hi {
			hi = x
		}
	}
	return buf[lo]*(1-frac) + hi*frac, nil
}

// selectRank reorders the NaN-free xs so that xs[k] holds its k-th
// smallest value, with no greater value before it and no smaller one
// after it. It partitions around a median-of-three pivot (Hoare
// scheme, so runs of equal values split evenly) and sorts what is left
// once the range is small or after 2·log2(n) passes, which caps the
// worst case at O(n log n).
func selectRank(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for passes := 2 * bits.Len(uint(len(xs))); passes > 0 && hi-lo >= 16; passes-- {
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
			if xs[mid] < xs[lo] {
				xs[mid], xs[lo] = xs[lo], xs[mid]
			}
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for pivot < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// xs[lo..j] <= pivot <= xs[i..hi]; anything between equals pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
	sort.Float64s(xs[lo : hi+1])
}

// SeriesAggregate aggregates R realizations of a length-T series into
// per-round summaries. realizations[r][t] is the value of round t in
// realization r; all realizations must share the same length.
func SeriesAggregate(realizations [][]float64) ([]Summary, error) {
	if len(realizations) == 0 {
		return nil, ErrEmpty
	}
	T := len(realizations[0])
	for r, series := range realizations {
		if len(series) != T {
			return nil, fmt.Errorf("stats: realization %d has length %d, want %d", r, len(series), T)
		}
	}
	out := make([]Summary, T)
	col := make([]float64, len(realizations))
	for t := 0; t < T; t++ {
		for r := range realizations {
			col[r] = realizations[r][t]
		}
		s, err := Summarize(col)
		if err != nil {
			return nil, err
		}
		out[t] = s
	}
	return out, nil
}

// CumSum returns the running sum of xs.
func CumSum(xs []float64) []float64 {
	out := make([]float64, len(xs))
	var s float64
	for i, v := range xs {
		s += v
		out[i] = s
	}
	return out
}

// Welford accumulates mean and variance online in a single pass, for
// streaming aggregation without retaining samples.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples seen.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (NaN before any sample).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the running unbiased variance (NaN with fewer than two
// samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// Summary converts the accumulated state into a Summary.
func (w *Welford) Summary() Summary {
	s := Summary{N: w.n, Mean: w.Mean()}
	if w.n >= 2 {
		s.StdDev = math.Sqrt(w.Variance())
		s.HalfCI95 = z95 * s.StdDev / math.Sqrt(float64(w.n))
	}
	return s
}
