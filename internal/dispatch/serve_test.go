package dispatch

import (
	"math"
	"reflect"
	"testing"

	"dolbie/internal/metrics"
)

// quickServeConfig is a small config that keeps serve tests fast while
// still exercising queueing, shedding, and the closed loop.
func quickServeConfig() ServeConfig {
	cfg := DefaultServeConfig()
	cfg.N = 4
	cfg.Rounds = 40
	cfg.ArrivalRate = 80
	cfg.QueueCap = 32
	return cfg
}

func TestServeConfigValidate(t *testing.T) {
	if err := DefaultServeConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	mut := []func(*ServeConfig){
		func(c *ServeConfig) { c.N = 0 },
		func(c *ServeConfig) { c.Rounds = 0 },
		func(c *ServeConfig) { c.RoundDur = 0 },
		func(c *ServeConfig) { c.ArrivalRate = 0 },
		func(c *ServeConfig) { c.DemandMean = 0 },
		func(c *ServeConfig) { c.Utilization = 2 },
		func(c *ServeConfig) { c.QueueCap = 0 },
		func(c *ServeConfig) { c.Policy = ControlPolicy(7) },
		func(c *ServeConfig) { c.Alpha1 = 1.5 },
		func(c *ServeConfig) { c.Shed = ShedPolicy(7) },
		func(c *ServeConfig) { c.Shards = -1 },
		func(c *ServeConfig) { c.Shards = c.QueueCap + 1 },
	}
	for i, m := range mut {
		c := DefaultServeConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestServeDeterministic(t *testing.T) {
	for _, p := range []ControlPolicy{PolicyDOLBIE, PolicyWRR, PolicyJSQ} {
		cfg := quickServeConfig()
		cfg.Policy = p
		a, err := Serve(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		b, err := Serve(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: results differ across identical runs:\n%+v\n%+v", p, a, b)
		}
	}
}

func TestServeSeedChangesRealization(t *testing.T) {
	cfg := quickServeConfig()
	a, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	b, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxWorkerLatencyP99 == b.MaxWorkerLatencyP99 && a.Arrivals == b.Arrivals {
		t.Error("different seeds produced identical runs")
	}
}

func TestServeClosedLoopRetunes(t *testing.T) {
	cfg := quickServeConfig()
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	res, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retunes != int64(cfg.Rounds) {
		t.Errorf("retunes = %d, want %d (one per round)", res.Retunes, cfg.Rounds)
	}
	if res.Completed == 0 {
		t.Error("no completions in a 40-round run")
	}
	if res.Arrivals == 0 || res.MaxWorkerLatencyP99 <= 0 {
		t.Errorf("implausible result: %+v", res)
	}
	// Conservation at quiescence.
	if res.Completed > res.Arrivals-res.ShedCount-res.Blocked {
		t.Errorf("completed %d exceeds admitted: %+v", res.Completed, res)
	}
}

func TestServeBaselinesDoNotRetune(t *testing.T) {
	for _, p := range []ControlPolicy{PolicyWRR, PolicyJSQ} {
		cfg := quickServeConfig()
		cfg.Policy = p
		res, err := Serve(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Retunes != 0 {
			t.Errorf("%s retuned %d times, want 0", p, res.Retunes)
		}
	}
}

func TestServeBlockPolicyTerminates(t *testing.T) {
	cfg := quickServeConfig()
	cfg.Shed = ShedBlock
	cfg.QueueCap = 4
	cfg.Utilization = 1.2 // overload so blocking actually binds
	res, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocked == 0 {
		t.Error("overloaded block run never blocked")
	}
	if res.ShedCount != 0 {
		t.Errorf("block policy shed %d requests", res.ShedCount)
	}
}

func TestServeSpillPolicySheds(t *testing.T) {
	cfg := quickServeConfig()
	cfg.Shed = ShedSpill
	cfg.QueueCap = 2
	cfg.Utilization = 1.3
	res, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spilled == 0 {
		t.Error("tiny queues under overload never spilled")
	}
}

func TestRunComparisonDOLBIEBeatsUniformWRR(t *testing.T) {
	cfg := DefaultServeConfig()
	cfg.Rounds = 120
	results, err := RunComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	dolbie, wrr, jsq := results[0], results[1], results[2]
	if dolbie.Policy != "dolbie" || wrr.Policy != "wrr" || jsq.Policy != "jsq" {
		t.Fatalf("unexpected order: %s %s %s", dolbie.Policy, wrr.Policy, jsq.Policy)
	}
	// The headline acceptance criterion: with 5x speed heterogeneity,
	// uniform WRR overloads the slow workers and DOLBIE must beat it on
	// p99 max-worker drain latency.
	if dolbie.MaxWorkerLatencyP99 >= wrr.MaxWorkerLatencyP99 {
		t.Errorf("DOLBIE p99 %.3fs not better than uniform WRR %.3fs",
			dolbie.MaxWorkerLatencyP99, wrr.MaxWorkerLatencyP99)
	}
	// JSQ reacts per request; DOLBIE should stay within 3x of it while
	// sending comparable control bytes.
	if dolbie.MaxWorkerLatencyP99 > 3*jsq.MaxWorkerLatencyP99 {
		t.Errorf("DOLBIE p99 %.3fs more than 3x JSQ %.3fs",
			dolbie.MaxWorkerLatencyP99, jsq.MaxWorkerLatencyP99)
	}
	if wrr.BytesPerRound != 0 || jsq.BytesPerRound == 0 || dolbie.BytesPerRound == 0 {
		t.Errorf("bytes/round: dolbie %v wrr %v jsq %v",
			dolbie.BytesPerRound, wrr.BytesPerRound, jsq.BytesPerRound)
	}
}

// serveJobConfig is one 30-round default serving job — the op of the
// serve_sim benchmark workload — at the given arrival rate and shed
// policy.
func serveJobConfig(rate float64, shed ShedPolicy) ServeConfig {
	cfg := DefaultServeConfig()
	cfg.Rounds = 30
	cfg.ArrivalRate = rate
	cfg.Shed = shed
	return cfg
}

// TestServeAllocsDoNotScaleWithArrivals pins the engine's per-arrival
// path as allocation-free: doubling the arrival rate doubles the
// requests a job serves, yet adds no allocation at all (a blocked
// request is held by value, never boxed, and the latency records are
// sized from the offered rate before the run, so they never regrow).
// The batched case covers the SubmitBatch arrival path: 16-request
// flushes over 4 shards.
func TestServeAllocsDoNotScaleWithArrivals(t *testing.T) {
	for _, tc := range []struct {
		shed          ShedPolicy
		shards, batch int
	}{
		{ShedReject, 0, 0},
		{ShedBlock, 0, 0},
		{ShedReject, 4, 16},
	} {
		allocs := func(rate float64) float64 {
			cfg := serveJobConfig(rate, tc.shed)
			cfg.Shards, cfg.BatchSize = tc.shards, tc.batch
			return testing.AllocsPerRun(5, func() {
				if _, err := Serve(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		base, doubled := allocs(200), allocs(400)
		t.Logf("%s, %d shards, batch %d: %.0f allocs per job at rate 200, %.0f at rate 400", tc.shed, tc.shards, tc.batch, base, doubled)
		if doubled != base {
			t.Errorf("%s, %d shards, batch %d: allocations went from %.0f to %.0f when the arrival rate doubled",
				tc.shed, tc.shards, tc.batch, base, doubled)
		}
	}
}

// TestLatencyHint checks the latency buffers' capacity hint: the Poisson
// mean plus four standard deviations, capped for extreme and NaN rates
// (int(NaN) is negative on amd64, and make would panic on it).
func TestLatencyHint(t *testing.T) {
	cfg := serveJobConfig(200, ShedReject) // 30 rounds of 1 s: mean 6000
	if got, want := latencyHint(200, cfg), 6000+4*77+16; got < want || got > want+1 {
		t.Errorf("latencyHint(200) = %d, want about %d", got, want)
	}
	for _, rate := range []float64{1e9, math.Inf(1), math.NaN()} {
		if got := latencyHint(rate, cfg); got != maxLatencyHint {
			t.Errorf("latencyHint(%v) = %d, want the cap %d", rate, got, maxLatencyHint)
		}
	}
}

// BenchmarkServe times one 30-round default serving job, the op of the
// serve_sim benchmark workload.
func BenchmarkServe(b *testing.B) {
	cfg := serveJobConfig(DefaultServeConfig().ArrivalRate, ShedReject)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := Serve(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
