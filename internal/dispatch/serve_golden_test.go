package dispatch

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"dolbie/internal/geo"
	"dolbie/internal/optimum"
)

// The golden file pins the serving engine's observable output bit for
// bit: the full ServeResult and every round's fed-back drain latencies
// l_{i,t} (observeRound) for a sweep of configurations that reaches
// every branch of serveWith — each shed policy under each control
// policy at overload (so the blocked-request slot, the spill path and
// shedding all bind), a multi-tenant run with a blocking bronze tenant
// and a rate-limited tenant, penalized and latency-blind geo serving,
// batched admission, and frozen worker speeds. Unlike the Shards=1
// equivalence test, which runs the same engine on both sides, it
// catches a change to the engine itself. Regenerate with
// `go test ./internal/dispatch -run ServeGolden -update` only when a
// change is meant to alter the served output.
var updateServeGolden = flag.Bool("update", false, "rewrite testdata/serve_golden.json")

const serveGoldenPath = "testdata/serve_golden.json"

// serveGolden is one pinned run: its result and its per-round costs.
type serveGolden struct {
	Result *ServeResult `json:"result"`
	Costs  [][]float64  `json:"costs"`
}

// overloadedServeConfig is the golden sweep's single-stream base:
// default serving at 110% utilization with 8-deep queues, so every
// backpressure policy fires within 40 rounds.
func overloadedServeConfig() ServeConfig {
	cfg := DefaultServeConfig()
	cfg.Rounds = 40
	cfg.Seed = 7
	cfg.QueueCap = 8
	cfg.Utilization = 1.1
	return cfg
}

// serveGoldenCases returns the pinned configurations by name.
func serveGoldenCases() map[string]ServeConfig {
	cases := map[string]ServeConfig{}
	for _, shed := range []ShedPolicy{ShedReject, ShedSpill, ShedBlock} {
		for _, policy := range []ControlPolicy{PolicyDOLBIE, PolicyWRR, PolicyJSQ, PolicyDGD} {
			cfg := overloadedServeConfig()
			cfg.Shed = shed
			cfg.Policy = policy
			cases[fmt.Sprintf("single/%s/%s", shed, policy)] = cfg
		}
	}

	mt := overloadedServeConfig()
	mt.Tenants = []TenantConfig{
		{Name: "gold", Priority: PriorityGold, Weight: 2},
		{Name: "silver", Priority: PrioritySilver, Weight: 1, RateLimit: 30, Objective: optimum.Lp(2)},
		{Name: "bronze", Priority: PriorityBronze, Weight: 1, Shed: ShedBlock},
	}
	cases["tenants/gold_silver-limited_bronze-block"] = mt

	for _, blind := range []bool{false, true} {
		cfg := DefaultServeConfig()
		cfg.N = 9
		cfg.Rounds = 40
		cfg.Seed = 7
		g := geo.ThreeRegions(cfg.N, cfg.Seed)
		cfg.Geo = &g
		cfg.GeoBlind = blind
		name := "geo/three_regions"
		if blind {
			name += "_blind"
		}
		cases[name] = cfg
	}

	batched := DefaultServeConfig()
	batched.Rounds = 40
	batched.Seed = 7
	batched.Shards = 4
	batched.BatchSize = 16
	cases["batch16/shards4"] = batched

	constant := DefaultServeConfig()
	constant.Rounds = 40
	constant.Seed = 7
	constant.ConstantSpeeds = true
	cases["constant_speeds"] = constant
	return cases
}

// runServeGolden serves cfg and records its result and fed-back costs.
func runServeGolden(t *testing.T, cfg ServeConfig) serveGolden {
	t.Helper()
	var g serveGolden
	cfg.observeRound = func(round int, costs []float64) {
		g.Costs = append(g.Costs, append([]float64(nil), costs...))
	}
	res, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Result = res
	return g
}

// TestServeGolden compares every pinned run with the golden file. Each
// case is stored as one compact JSON line; encoding/json writes the
// shortest decimal that round-trips a float64, so equal bytes mean
// equal bits.
func TestServeGolden(t *testing.T) {
	cases := serveGoldenCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	got := make(map[string][]byte, len(cases))
	var blocked int64
	for _, name := range names {
		g := runServeGolden(t, cases[name])
		blocked += g.Result.Blocked
		raw, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = raw
	}
	if blocked == 0 {
		t.Fatal("no pinned run blocked a request: the blocked-request slot is not exercised")
	}

	if *updateServeGolden {
		var buf bytes.Buffer
		buf.WriteString("{\n")
		for i, name := range names {
			key, _ := json.Marshal(name)
			buf.Write(key)
			buf.WriteString(": ")
			buf.Write(got[name])
			if i < len(names)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("}\n")
		if err := os.MkdirAll(filepath.Dir(serveGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(serveGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	raw, err := os.ReadFile(serveGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file holds %d cases, the sweep runs %d", len(want), len(got))
	}
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: missing from the golden file", name)
			continue
		}
		if !bytes.Equal(got[name], w) {
			t.Errorf("%s diverged from the golden file: %s", name, serveGoldenDiff(got[name], w))
		}
	}
}

// serveGoldenDiff names the first difference between two encoded runs.
func serveGoldenDiff(gotRaw, wantRaw []byte) string {
	var got, want serveGolden
	if err := json.Unmarshal(gotRaw, &got); err != nil {
		return err.Error()
	}
	if err := json.Unmarshal(wantRaw, &want); err != nil {
		return err.Error()
	}
	if len(got.Costs) != len(want.Costs) {
		return fmt.Sprintf("%d observed rounds, want %d", len(got.Costs), len(want.Costs))
	}
	for r := range got.Costs {
		for i := range got.Costs[r] {
			if i >= len(want.Costs[r]) || got.Costs[r][i] != want.Costs[r][i] {
				return fmt.Sprintf("round %d costs %v, want %v", r, got.Costs[r], want.Costs[r])
			}
		}
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		return fmt.Sprintf("result\n got %+v\nwant %+v", got.Result, want.Result)
	}
	return fmt.Sprintf("encodings differ\n got %s\nwant %s", gotRaw, wantRaw)
}
