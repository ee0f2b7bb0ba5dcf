package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
)

// smoke runs a workload with a few ops per slice and one set-up.
func smoke(t *testing.T, name string, seed int64, traced bool) *result {
	t.Helper()
	var out bytes.Buffer
	cfg := benchConfig{workload: name, seed: seed, seconds: 1, trace: traced, work: 0.003, setupReps: 1}
	res, err := runBench(cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	if !res.correct || res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d %v\n%s", name, res.correct, res.failed, res.attempted, res.failures, out.String())
	}
	return res
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res := smoke(t, name, 3, false)
			line := res.final()
			if len(line.Metrics) != len(endToEndMetrics) {
				t.Fatalf("untraced run printed %d metrics, want %d", len(line.Metrics), len(endToEndMetrics))
			}
			for _, d := range endToEndMetrics {
				if m, ok := line.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
					t.Errorf("%s = %+v, want a positive value in %s", d.name, m, d.unit)
				}
			}
			tr := smoke(t, name, 3, true).final()
			if len(tr.Metrics) != len(perLayerMetrics) {
				t.Fatalf("traced run printed %d metrics, want %d", len(tr.Metrics), len(perLayerMetrics))
			}
			if tr.Metrics["bench.ref_ms"].Value <= 0 {
				t.Error("traced run has no reference kernel time")
			}
		})
	}
}

func TestGlobalCostRepeatsPerSeed(t *testing.T) {
	for _, name := range []string{"serve_sim", "rounds_fd"} {
		a, b := smoke(t, name, 5, false), smoke(t, name, 5, false)
		if a.globalCost != b.globalCost {
			t.Errorf("%s: global cost %v then %v for the same seed", name, a.globalCost, b.globalCost)
		}
		if c := smoke(t, name, 6, false); c.globalCost == a.globalCost {
			t.Errorf("%s: seeds 5 and 6 gave the same global cost", name)
		}
	}
}

func TestCLIRejectsBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{{"--workload", "nope"}, {"--workload", "serve_sim", "--trace", "2"}, {"--bogus"}} {
		if code := cli(args, &out, &errOut); code == 0 {
			t.Errorf("cli(%v) exited 0", args)
		}
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Error("a rejected run printed a result")
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

//go:noinline
func burnForProfile(n int) uint64 {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

func TestProfileSharesFindEntryPoints(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	var sink uint64
	for i := 0; i < 40; i++ {
		sink += burnForProfile(5_000_000)
	}
	pprof.StopCPUProfile()
	_ = sink
	samples, err := profileStacks(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sh := newProfileShares()
	layers := []layer{
		{"burn", []string{"dolbie/perfbench.burnForProfile"}},
		{"pkg", []string{"dolbie/perfbench."}},
		{"rest", []string{"dolbie/perfbench.TestProfileSharesFindEntryPoints"}},
		{"none", []string{"nowhere.Function"}},
	}
	sh.add(samples, layers, map[string][]string{"rest": {"burn"}})
	if sh.total == 0 {
		t.Skip("no samples collected")
	}
	if b := sh.share("burn"); b < 0.5 || b > sh.share("pkg") {
		t.Errorf("burn share %v, package share %v", b, sh.share("pkg"))
	}
	if sh.share("none") != 0 {
		t.Error("a function that never ran has a share")
	}
	if sh.share("rest")+sh.share("burn") > sh.share("pkg")+1e-9 {
		t.Error("an excluded layer's samples were counted in the outer layer")
	}
	if _, err := profileStacks([]byte("not gzip")); err == nil {
		t.Error("profileStacks accepted garbage")
	}
}
