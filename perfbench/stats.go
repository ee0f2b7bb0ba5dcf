package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram over nanoseconds. Values below
// 2^11 ns are counted exactly; above, each power-of-two range is split
// into 1024 buckets, so a reported quantile is within 0.1% of the true
// sample. It replaces per-op sample buffers: a run of several million
// ops records into a fixed 128 KiB table, so the benchmark's own memory
// stays constant and only the program moves peak RSS.
type hist struct {
	counts []uint32
	n      int64
}

const (
	histExact = 1 << 11 // values below are their own bucket
	histSub   = 1 << 10 // buckets per power of two above histExact
	histShift = 30      // largest shift kept: values up to ~36 min in ns
	histSize  = histExact + histShift*histSub
)

func newHist() *hist { return &hist{counts: make([]uint32, histSize)} }

func histBucket(v int64) int {
	if v < histExact {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 11
	if shift > histShift {
		return histSize - 1
	}
	top := int(v >> uint(shift)) // in [1024, 2047]
	return histExact + (shift-1)*histSub + top - histSub
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < histExact {
		return float64(i)
	}
	shift := (i-histExact)/histSub + 1
	top := int64((i-histExact)%histSub + histSub)
	return float64(top<<uint(shift)) + float64(int64(1)<<uint(shift))/2
}

func (h *hist) add(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) reset() {
	clear(h.counts)
	h.n = 0
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) in ns.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += int64(c)
		if cum >= rank {
			return histValue(i)
		}
	}
	return histValue(len(h.counts) - 1)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), which is how spreads across runs are judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 0 {
		return 0, 0
	}
	if m == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// refNominalMS is the reference kernel's typical time on the host the
// bounds were set on (2-vCPU Firecracker microVM, Go 1.24). Adjusted metrics are scaled
// to what they would read had the kernel taken this long, which removes
// host speed drift that hits the program and the kernel alike.
const refNominalMS = 6.5

// adjustTime rescales a time-like metric (higher when the host is
// slower) by the run's reference kernel time.
func adjustTime(v, refMS float64) float64 {
	if refMS <= 0 {
		return v
	}
	return v * refNominalMS / refMS
}

// adjustRate rescales a rate-like metric (lower when the host is
// slower) by the run's reference kernel time.
func adjustRate(v, refMS float64) float64 {
	return v * refMS / refNominalMS
}
