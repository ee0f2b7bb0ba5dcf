package dispatch

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"dolbie/internal/metrics"
)

// pregenerate draws the next n requests of gen in arrival order, so a
// test can replay one realization against several dispatchers.
func pregenerate(gen *Generator, n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = gen.Next()
	}
	return out
}

func TestParseShedPolicy(t *testing.T) {
	cases := map[string]ShedPolicy{
		"reject": ShedReject,
		"BLOCK":  ShedBlock,
		" spill": ShedSpill,
	}
	for in, want := range cases {
		var got ShedPolicy
		if err := got.UnmarshalText([]byte(in)); err != nil || got != want {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	var p ShedPolicy
	if err := p.UnmarshalText([]byte("drop")); err == nil {
		t.Error("UnmarshalText(drop) should fail")
	}
	for _, p := range []ShedPolicy{ShedReject, ShedBlock, ShedSpill} {
		var back ShedPolicy
		if err := back.UnmarshalText([]byte(p.String())); err != nil || back != p {
			t.Errorf("round trip %v -> %q -> %v, %v", p, p.String(), back, err)
		}
	}
}

func TestParseRouteAndControlPolicy(t *testing.T) {
	var r RoutePolicy
	if err := r.UnmarshalText([]byte("wrr")); err != nil || r != RouteWeighted {
		t.Errorf("UnmarshalText(wrr) = %v, %v", r, err)
	}
	if err := r.UnmarshalText([]byte("jsq")); err != nil || r != RouteJSQ {
		t.Errorf("UnmarshalText(jsq) = %v, %v", r, err)
	}
	if err := r.UnmarshalText([]byte("random")); err == nil {
		t.Error("UnmarshalText(random) should fail")
	}
	for _, p := range []ControlPolicy{PolicyDOLBIE, PolicyWRR, PolicyJSQ} {
		var back ControlPolicy
		if err := back.UnmarshalText([]byte(p.String())); err != nil || back != p {
			t.Errorf("round trip %v -> %q -> %v, %v", p, p.String(), back, err)
		}
	}
	var c ControlPolicy
	if err := c.UnmarshalText([]byte("greedy")); err == nil {
		t.Error("UnmarshalText(greedy) should fail")
	}
}

func TestQueueRing(t *testing.T) {
	q := newQueue(3, new(atomic.Int64))
	for i := 0; i < 2; i++ { // exercise wraparound twice
		for j := int64(0); j < 3; j++ {
			q.push(Request{ID: j, Demand: 2})
		}
		if !q.full() || q.len() != 3 {
			t.Fatalf("want full queue of 3, got len %d", q.len())
		}
		if q.work != 6 {
			t.Fatalf("work = %v, want 6", q.work)
		}
		for j := int64(0); j < 3; j++ {
			r, ok := q.pop()
			if !ok || r.ID != j {
				t.Fatalf("pop = %+v, %v; want ID %d", r, ok, j)
			}
		}
		if q.len() != 0 || q.work != 0 {
			t.Fatalf("drained queue: len %d work %v", q.len(), q.work)
		}
	}
	if _, ok := q.pop(); ok {
		t.Error("pop on empty queue should report !ok")
	}
	if _, ok := q.peek(); ok {
		t.Error("peek on empty queue should report !ok")
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{N: 2, QueueCap: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{N: 0, QueueCap: 4},
		{N: 2, QueueCap: 0},
		{N: 2, QueueCap: 4, Shed: ShedPolicy(9)},
		{N: 2, QueueCap: 4, Route: RoutePolicy(9)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSmoothWRRFollowsWeights(t *testing.T) {
	d, err := New(Config{N: 3, QueueCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetWeights([]float64{2, 1, 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		d.Submit(Request{ID: int64(i), Demand: 1})
	}
	tot := d.Totals()
	if tot.Routed[0] != 20 || tot.Routed[1] != 10 || tot.Routed[2] != 10 {
		t.Errorf("routed = %v, want [20 10 10]", tot.Routed)
	}
	if tot.Arrivals != 40 || tot.Shed != 0 || tot.Blocked != 0 {
		t.Errorf("totals = %+v", tot)
	}
}

func TestJSQPicksShortestQueue(t *testing.T) {
	d, err := New(Config{N: 3, QueueCap: 4, Route: RouteJSQ})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		v := d.Submit(Request{ID: int64(i), Demand: 1})
		if v.Outcome != Routed || v.Worker != w {
			t.Fatalf("submit %d: verdict %+v, want worker %d", i, v, w)
		}
	}
	// Drain one from worker 1; the next request must go there.
	if _, ok := d.Complete(1, 1); !ok {
		t.Fatal("complete failed")
	}
	if v := d.Submit(Request{ID: 99, Demand: 1}); v.Worker != 1 {
		t.Errorf("after drain, routed to %d, want 1", v.Worker)
	}
}

func TestShedReject(t *testing.T) {
	d, err := New(Config{N: 1, QueueCap: 2, Shed: ShedReject})
	if err != nil {
		t.Fatal(err)
	}
	d.Submit(Request{ID: 1, Demand: 1})
	d.Submit(Request{ID: 2, Demand: 1})
	v := d.Submit(Request{ID: 3, Demand: 1})
	if v.Outcome != Shed || v.Worker != -1 {
		t.Fatalf("verdict = %+v, want shed", v)
	}
	tot := d.Totals()
	if tot.Shed != 1 || tot.Arrivals != 3 || tot.Routed[0] != 2 {
		t.Errorf("totals = %+v", tot)
	}
}

func TestShedBlockLeavesNoTrace(t *testing.T) {
	d, err := New(Config{N: 1, QueueCap: 1, Shed: ShedBlock})
	if err != nil {
		t.Fatal(err)
	}
	d.Submit(Request{ID: 1, Demand: 1})
	v := d.Submit(Request{ID: 2, Demand: 1})
	if v.Outcome != Blocked {
		t.Fatalf("verdict = %+v, want blocked", v)
	}
	if got := d.Depths()[0]; got != 1 {
		t.Errorf("depth = %d, want 1 (blocked request must not enqueue)", got)
	}
	tot := d.Totals()
	if tot.Blocked != 1 || tot.Arrivals != 2 || tot.Shed != 0 {
		t.Errorf("totals = %+v", tot)
	}
	// After a completion the resubmit is admitted.
	d.Complete(0, 1)
	if v := d.Submit(Request{ID: 2, Demand: 1}); v.Outcome != Routed {
		t.Errorf("resubmit verdict = %+v, want routed", v)
	}
}

func TestShedSpill(t *testing.T) {
	d, err := New(Config{N: 3, QueueCap: 1, Shed: ShedSpill})
	if err != nil {
		t.Fatal(err)
	}
	// Force all traffic at worker 0.
	if err := d.SetWeights([]float64{1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if v := d.Submit(Request{ID: 1, Demand: 1}); v.Outcome != Routed || v.Worker != 0 {
		t.Fatalf("first verdict = %+v", v)
	}
	v := d.Submit(Request{ID: 2, Demand: 1})
	if v.Outcome != Spilled || v.Worker != 1 {
		t.Fatalf("spill verdict = %+v, want worker 1", v)
	}
	d.Submit(Request{ID: 3, Demand: 1}) // spills to 2
	v = d.Submit(Request{ID: 4, Demand: 1})
	if v.Outcome != Shed {
		t.Fatalf("exhausted verdict = %+v, want shed", v)
	}
	tot := d.Totals()
	if tot.Spilled != 2 || tot.Shed != 1 {
		t.Errorf("totals = %+v", tot)
	}
	sum := tot.Routed[0] + tot.Routed[1] + tot.Routed[2]
	if sum+tot.Shed+tot.Blocked != tot.Arrivals {
		t.Errorf("conservation violated: %+v", tot)
	}
}

// TestSetWeightsValidation checks that malformed weight vectors are
// refused and leave the routing state as it was. An accepted infinite
// weight, or a sum that overflows, would turn the smooth-WRR
// accumulators NaN or -Inf and send almost every later request to
// worker 0, even after a valid retune.
func TestSetWeightsValidation(t *testing.T) {
	d, err := New(Config{N: 2, QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][]float64{
		{1},
		{1, -0.5},
		{0, 0},
		{math.NaN(), 1},
		{math.Inf(1), 1},
		{1e308, 1e308},
		{math.MaxFloat64 / 2, 0},
	} {
		if err := d.SetWeights(w); err == nil {
			t.Errorf("SetWeights(%v) should fail", w)
		}
	}
	if got := d.Weights(); got[0] != 0.5 || got[1] != 0.5 {
		t.Errorf("weights after refused updates = %v, want the initial [0.5 0.5]", got)
	}
}

func TestCompleteObservesLatency(t *testing.T) {
	reg := metrics.NewRegistry()
	d, err := New(Config{N: 2, QueueCap: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	v := d.Submit(Request{ID: 1, Arrival: 1.5, Demand: 1})
	r, ok := d.Complete(v.Worker, 2.0)
	if !ok || r.ID != 1 {
		t.Fatalf("complete = %+v, %v", r, ok)
	}
	if _, ok := d.Complete(v.Worker, 2.0); ok {
		t.Error("complete on empty queue should report !ok")
	}
	if _, ok := d.Complete(-1, 0); ok {
		t.Error("complete on bad worker should report !ok")
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		MetricArrivals + " 1",
		MetricCompletionLatency + `_count 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

func TestIngestHandler(t *testing.T) {
	d, err := New(Config{N: 1, QueueCap: 1, Shed: ShedReject})
	if err != nil {
		t.Fatal(err)
	}
	clock := 0.0
	h := IngestHandler(d, func() float64 { clock += 0.5; return clock })

	get := httptest.NewRequest("GET", "/ingest", nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, get)
	if rw.Code != 405 {
		t.Errorf("GET status = %d, want 405", rw.Code)
	}

	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("POST", "/ingest?demand=2", nil))
	if rw.Code != 200 || !strings.Contains(rw.Body.String(), `"outcome":"routed"`) {
		t.Errorf("first POST: %d %s", rw.Code, rw.Body.String())
	}

	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("POST", "/ingest", nil))
	if rw.Code != 429 {
		t.Errorf("full-queue POST status = %d, want 429", rw.Code)
	}

	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("POST", "/ingest?demand=-1", nil))
	if rw.Code != 400 {
		t.Errorf("bad-demand POST status = %d, want 400", rw.Code)
	}

	if got := d.Backlog()[0]; got != 2 {
		t.Errorf("backlog = %v, want 2 (demand honoured)", got)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a, err := NewGenerator(10, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewGenerator(10, 1, 7)
	last := 0.0
	for i := 0; i < 100; i++ {
		ra, rb := a.Next(), b.Next()
		if ra != rb {
			t.Fatalf("request %d diverged: %+v vs %+v", i, ra, rb)
		}
		if ra.Arrival <= last {
			t.Fatalf("arrivals not strictly increasing at %d", i)
		}
		if ra.Demand <= 0 {
			t.Fatalf("non-positive demand at %d", i)
		}
		if ra.ID != int64(i+1) {
			t.Fatalf("ID = %d, want %d", ra.ID, i+1)
		}
		last = ra.Arrival
	}
	if _, err := NewGenerator(0, 1, 1); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := NewGenerator(1, 0, 1); err == nil {
		t.Error("zero demand should fail")
	}
}
