// Package metrics is a stdlib-only, concurrency-safe metrics registry
// for the DOLBIE runtime. It provides the three Prometheus core metric
// types — monotonic counters, gauges, and cumulative histograms — both
// as single instruments and as labeled families ("vecs"), and renders
// them in the Prometheus text exposition format (version 0.0.4) so any
// standard scraper can consume them.
//
// The registry exists because the paper's evaluation hinges on
// quantities that must be watchable at runtime: the per-round global
// cost f_t(x_t), the straggler identity s_t, the step size alpha_t, and
// the message/byte overhead of Algorithms 1-2 (Section IV-C). The
// instrument names used across the repository are documented in the
// README's Observability section.
//
// Registration is idempotent: asking a registry for an instrument that
// already exists returns the existing one, so independent nodes of a
// deployment can share one registry without coordination. Asking for an
// existing name with a different type or label set panics — that is a
// programming error, not a runtime condition.
//
// All instruments are safe for concurrent use. Counters and gauges are
// lock-free (atomic float64 bit operations); histograms take a short
// per-instrument mutex.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// metricKind discriminates the instrument type of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindGaugeFunc
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds a namespace of metric families. The zero value is not
// usable; construct with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	hooks    []func()
	// scrape serializes WriteText: an overlapping scrape's hooks would
	// otherwise advance counters while this one renders, so one
	// exposition could mix two snapshots.
	scrape sync.Mutex
}

// NewRegistry constructs an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OnCollect registers fn to run at the start of every WriteText call,
// before any family is snapshotted. Subsystems that keep hot-path
// counters in their own storage (for example sharded or per-goroutine
// tallies) use the hook to refresh their registry series to one
// consistent snapshot per scrape instead of paying a registry update on
// every event. Hooks run in registration order on the scraping
// goroutine; WriteText calls are serialized, so hooks never overlap and
// each exposition renders exactly the snapshot its hooks published.
func (r *Registry) OnCollect(fn func()) {
	if fn == nil {
		panic("metrics: nil OnCollect hook")
	}
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// family is one named metric family: a type, a help string, a label
// schema, and the set of label-distinguished series.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series
}

// series is one labeled instance within a family. Exactly one of the
// value fields is populated, per the family kind.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	histogram   *Histogram
	gaugeFn     func() float64
}

// DefBuckets is the default histogram bucket layout: powers of two up
// to 64, a natural fit for iteration counts of the log2-converging
// bisection kernel.
var DefBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// family returns (or creates) the named family, enforcing schema
// consistency with any prior registration.
func (r *Registry) family(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	if name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		if kind == kindHistogram {
			buckets = normalizeBuckets(buckets)
		}
		f = &family{
			name:    name,
			help:    help,
			kind:    kind,
			labels:  append([]string(nil), labels...),
			buckets: buckets,
			series:  make(map[string]*series),
		}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s already registered as %s, not %s", name, f.kind, kind))
	}
	if len(f.labels) != len(labels) {
		panic(fmt.Sprintf("metrics: %s already registered with labels %v, not %v", name, f.labels, labels))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("metrics: %s already registered with labels %v, not %v", name, f.labels, labels))
		}
	}
	return f
}

// normalizeBuckets sorts, deduplicates, and strips a trailing +Inf from
// a bucket layout (the +Inf bucket is always implicit). Nil or empty
// falls back to DefBuckets.
func normalizeBuckets(buckets []float64) []float64 {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	out := append([]float64(nil), buckets...)
	sort.Float64s(out)
	dedup := out[:0]
	for i, b := range out {
		if math.IsNaN(b) {
			panic("metrics: NaN histogram bucket")
		}
		if i > 0 && b == out[i-1] {
			continue
		}
		if math.IsInf(b, +1) {
			continue
		}
		dedup = append(dedup, b)
	}
	return dedup
}

// seriesFor returns (or creates) the series with the given label values.
func (f *family) seriesFor(labelValues []string) *series {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d", f.name, len(f.labels), len(labelValues)))
	}
	key := seriesKey(labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labelValues: append([]string(nil), labelValues...)}
		switch f.kind {
		case kindCounter:
			s.counter = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			s.histogram = newHistogram(f.buckets)
		}
		f.series[key] = s
	}
	return s
}

// seriesKey builds the map key for a label-value tuple. The unit
// separator cannot appear in reasonable label values, and a collision
// would only merge two series, never corrupt memory.
func seriesKey(labelValues []string) string {
	if len(labelValues) == 0 {
		return ""
	}
	key := labelValues[0]
	for _, v := range labelValues[1:] {
		key += "\x1f" + v
	}
	return key
}

// Counter returns the unlabeled counter with the given name, creating
// it on first use. Counters only go up.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, kindCounter, nil, nil).seriesFor(nil).counter
}

// Gauge returns the unlabeled gauge with the given name, creating it on
// first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, kindGauge, nil, nil).seriesFor(nil).gauge
}

// Histogram returns the unlabeled histogram with the given name,
// creating it on first use. buckets lists the upper bounds of the
// cumulative buckets (a +Inf bucket is always added); nil or empty uses
// DefBuckets. The layout of an already-registered histogram is not
// changed by later calls.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.family(name, help, kindHistogram, nil, buckets).seriesFor(nil).histogram
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time (e.g. runtime.NumGoroutine). Re-registering the same name
// replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if fn == nil {
		panic("metrics: nil GaugeFunc callback")
	}
	f := r.family(name, help, kindGaugeFunc, nil, nil)
	s := f.seriesFor(nil)
	f.mu.Lock()
	s.gaugeFn = fn
	f.mu.Unlock()
}

// CounterVec returns the labeled counter family with the given name and
// label schema, creating it on first use.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.family(name, help, kindCounter, labels, nil)}
}

// GaugeVec returns the labeled gauge family with the given name and
// label schema, creating it on first use.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.family(name, help, kindGauge, labels, nil)}
}

// HistogramVec returns the labeled histogram family with the given
// name, bucket layout, and label schema, creating it on first use.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{fam: r.family(name, help, kindHistogram, labels, buckets)}
}

// Counter is a monotonically increasing float64. Safe for concurrent
// use.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta, which must be non-negative.
func (c *Counter) Add(delta float64) {
	if delta < 0 || math.IsNaN(delta) {
		panic(fmt.Sprintf("metrics: counter decrement by %v", delta))
	}
	addFloatBits(&c.bits, delta)
}

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an arbitrary float64 that can go up and down. Safe for
// concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta float64) { addFloatBits(&g.bits, delta) }

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloatBits performs a lock-free float64 addition on atomically
// stored bits.
func addFloatBits(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram counts observations into cumulative buckets and tracks
// their sum. Safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	upper  []float64 // sorted upper bounds, excluding +Inf
	counts []uint64  // per-bucket (non-cumulative) counts
	inf    uint64    // observations above the last bound
	sum    float64
	count  uint64
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, counts: make([]uint64, len(upper))}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v)
	h.mu.Lock()
	if i < len(h.counts) {
		h.counts[i]++
	} else {
		h.inf++
	}
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Merge adds a batch of pre-binned observations: counts[i] observations
// in bucket i (aligned with the histogram's upper bounds), inf above the
// last bound, together contributing sum over count observations.
// Subsystems that bin observations into their own hot-path storage (for
// example sharded tallies) use Merge from an OnCollect hook to flush at
// scrape time instead of paying the histogram mutex per observation.
func (h *Histogram) Merge(counts []uint64, inf uint64, sum float64, count uint64) {
	if len(counts) != len(h.counts) {
		panic(fmt.Sprintf("metrics: merging %d buckets into a %d-bucket histogram", len(counts), len(h.counts)))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, c := range counts {
		h.counts[i] += c
	}
	h.inf += inf
	h.sum += sum
	h.count += count
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot returns cumulative bucket counts (aligned with h.upper plus
// a final +Inf entry), the sum, and the count.
func (h *Histogram) snapshot() (cum []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts)+1)
	var running uint64
	for i, c := range h.counts {
		running += c
		cum[i] = running
	}
	cum[len(h.counts)] = running + h.inf
	return cum, h.sum, h.count
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct {
	fam *family
}

// WithLabelValues returns the counter for the given label-value tuple,
// creating it on first use. The tuple length must match the family's
// label schema.
func (v *CounterVec) WithLabelValues(labelValues ...string) *Counter {
	return v.fam.seriesFor(labelValues).counter
}

// GaugeVec is a family of gauges distinguished by label values.
type GaugeVec struct {
	fam *family
}

// WithLabelValues returns the gauge for the given label-value tuple,
// creating it on first use.
func (v *GaugeVec) WithLabelValues(labelValues ...string) *Gauge {
	return v.fam.seriesFor(labelValues).gauge
}

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct {
	fam *family
}

// WithLabelValues returns the histogram for the given label-value
// tuple, creating it on first use.
func (v *HistogramVec) WithLabelValues(labelValues ...string) *Histogram {
	return v.fam.seriesFor(labelValues).histogram
}
