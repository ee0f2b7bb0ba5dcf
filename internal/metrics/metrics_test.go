package metrics

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "a counter")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	if again := reg.Counter("c_total", "a counter"); again != c {
		t.Fatal("re-registration did not return the same counter")
	}

	g := reg.Gauge("g", "a gauge")
	g.Set(10)
	g.Dec()
	g.Add(-2)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative counter Add did not panic")
			}
		}()
		c.Add(-1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind mismatch on re-registration did not panic")
			}
		}()
		reg.Gauge("c_total", "now a gauge")
	}()
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "a histogram", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	cum, sum, count := h.snapshot()
	// le=1: {0.5, 1}; le=2: +{1.5}; le=4: +{3}; +Inf: +{100}.
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cumulative bucket %d = %d, want %d", i, cum[i], w)
		}
	}
	if count != 5 || sum != 106 {
		t.Errorf("count, sum = %d, %v; want 5, 106", count, sum)
	}
}

func TestVecLabels(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("msgs_total", "messages", "node", "kind")
	v.WithLabelValues("worker-0", "cost").Add(3)
	v.WithLabelValues("worker-0", "cost").Inc()
	v.WithLabelValues("master", "assign").Inc()
	if got := v.WithLabelValues("worker-0", "cost").Value(); got != 4 {
		t.Fatalf("labeled counter = %v, want 4", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong label arity did not panic")
			}
		}()
		v.WithLabelValues("only-one")
	}()
}

// TestConcurrentIncrements is the registry's race test: hammer one
// counter, one gauge, one histogram, and one labeled family from many
// goroutines (run under `go test -race`) and verify the totals.
func TestConcurrentIncrements(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("conc_total", "x")
	g := reg.Gauge("conc_gauge", "x")
	h := reg.Histogram("conc_hist", "x", nil)
	vec := reg.CounterVec("conc_vec_total", "x", "node")

	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := fmt.Sprintf("n%d", w%4)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 8))
				vec.WithLabelValues(node).Inc()
				if i%100 == 0 { // concurrent scrapes must not race writers
					if err := reg.WriteText(io.Discard); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	total := float64(workers * perWorker)
	if got := c.Value(); got != total {
		t.Errorf("counter = %v, want %v", got, total)
	}
	if got := g.Value(); got != total {
		t.Errorf("gauge = %v, want %v", got, total)
	}
	if got := h.Count(); got != uint64(total) {
		t.Errorf("histogram count = %d, want %v", got, total)
	}
	var vecTotal float64
	for i := 0; i < 4; i++ {
		vecTotal += vec.WithLabelValues(fmt.Sprintf("n%d", i)).Value()
	}
	if vecTotal != total {
		t.Errorf("vec total = %v, want %v", vecTotal, total)
	}
}

// TestWriteTextGolden pins the exposition format byte-for-byte.
func TestWriteTextGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dolbie_rounds_total", "Completed DOLBIE rounds.").Add(3)
	reg.Gauge("dolbie_alpha", "Current step size alpha_t.").Set(0.05)
	h := reg.Histogram("dolbie_iters", "Bisection iterations.", []float64{1, 2})
	h.Observe(1)
	h.Observe(5)
	v := reg.GaugeVec("dolbie_worker_cost", "Per-worker cost.", "worker")
	v.WithLabelValues("0").Set(1.25)
	v.WithLabelValues("1").Set(math.Inf(1))
	e := reg.CounterVec("dolbie_escaped_total", "Label escaping.", "path")
	e.WithLabelValues("a\"b\\c\nd").Inc()

	const want = `# HELP dolbie_alpha Current step size alpha_t.
# TYPE dolbie_alpha gauge
dolbie_alpha 0.05
# HELP dolbie_escaped_total Label escaping.
# TYPE dolbie_escaped_total counter
dolbie_escaped_total{path="a\"b\\c\nd"} 1
# HELP dolbie_iters Bisection iterations.
# TYPE dolbie_iters histogram
dolbie_iters_bucket{le="1"} 1
dolbie_iters_bucket{le="2"} 1
dolbie_iters_bucket{le="+Inf"} 2
dolbie_iters_sum 6
dolbie_iters_count 2
# HELP dolbie_rounds_total Completed DOLBIE rounds.
# TYPE dolbie_rounds_total counter
dolbie_rounds_total 3
# HELP dolbie_worker_cost Per-worker cost.
# TYPE dolbie_worker_cost gauge
dolbie_worker_cost{worker="0"} 1.25
dolbie_worker_cost{worker="1"} +Inf
`
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	val := 41.0
	reg.GaugeFunc("dolbie_fn", "Scrape-time gauge.", func() float64 { return val })
	val = 42
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dolbie_fn 42\n") {
		t.Errorf("GaugeFunc not evaluated at scrape time:\n%s", sb.String())
	}
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total", "x").Inc()
	srv, err := StartServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	get := func(path string) (int, string, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	if code, body, ct := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "up_total 1") || ct != ContentType {
		t.Errorf("/metrics = %d %q (Content-Type %q)", code, body, ct)
	}
	if code, body, _ := get("/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body, _ := get("/debug/pprof/goroutine?debug=1"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/goroutine = %d (len %d)", code, len(body))
	}
}

// TestOnCollectHook checks that collect hooks run at the start of every
// WriteText call (in registration order, before families are
// snapshotted, so a hook's updates land in the same scrape), and that a
// nil hook is rejected.
func TestOnCollectHook(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hooked_total", "refreshed by hook")
	var calls []int
	reg.OnCollect(func() { calls = append(calls, 1); c.Inc() })
	reg.OnCollect(func() { calls = append(calls, 2) })

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "hooked_total 1") {
		t.Errorf("hook update missing from the same scrape:\n%s", sb.String())
	}
	sb.Reset()
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "hooked_total 2") {
		t.Errorf("hook did not run on second scrape:\n%s", sb.String())
	}
	if want := []int{1, 2, 1, 2}; fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Errorf("hook call order = %v, want %v", calls, want)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil OnCollect hook did not panic")
			}
		}()
		reg.OnCollect(nil)
	}()
}

// TestOnCollectRemove checks that a removed hook no longer runs, that
// the others keep their order, and that removing a hook twice is
// harmless.
func TestOnCollectRemove(t *testing.T) {
	reg := NewRegistry()
	var calls []int
	reg.OnCollect(func() { calls = append(calls, 1) })
	remove := reg.OnCollect(func() { calls = append(calls, 2) })
	reg.OnCollect(func() { calls = append(calls, 3) })
	if got := reg.CollectHooks(); got != 3 {
		t.Fatalf("%d hooks registered, want 3", got)
	}
	remove()
	remove()
	if got := reg.CollectHooks(); got != 2 {
		t.Fatalf("%d hooks after removing one twice, want 2", got)
	}
	if err := reg.WriteText(io.Discard); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 3}; fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Errorf("hook calls after removal = %v, want %v", calls, want)
	}
}

// TestHistogramMerge checks that Merge folds a pre-binned batch into
// the histogram exactly as the equivalent Observe sequence would, and
// that a bucket-count mismatch panics.
func TestHistogramMerge(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("m", "merged", []float64{1, 2, 4})
	h.Observe(0.5)
	// Batch: one observation <=1, two in (1,2], one above 4.
	h.Merge([]uint64{1, 2, 0}, 1, 0.9+1.5+1.8+9.0, 4)
	cum, sum, count := h.snapshot()
	want := []uint64{2, 4, 4, 5} // cumulative: le=1, le=2, le=4, +Inf
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cumulative bucket %d = %d, want %d", i, cum[i], w)
		}
	}
	if count != 5 || math.Abs(sum-13.7) > 1e-12 {
		t.Errorf("count, sum = %d, %v; want 5, 13.7", count, sum)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("bucket-count mismatch did not panic")
			}
		}()
		h.Merge([]uint64{1}, 0, 0, 1)
	}()
}
