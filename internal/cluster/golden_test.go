package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/costfn"
	"dolbie/internal/simplex"
	"dolbie/internal/wire"
)

// The golden file pins the observable output of both deployment drivers
// bit for bit: per-round played shares and realized costs, the final
// step sizes, and every node's traffic counters for fault-free Algorithm
// 1 and 2 deployments, plus the outcome of the master's fail-stop crash
// drills. Regenerate with `go test ./internal/cluster -run Golden
// -update` only when a change is meant to alter the protocol's output.
var updateGolden = flag.Bool("update", false, "rewrite testdata/drivers_golden.json")

const goldenPath = "testdata/drivers_golden.json"

type goldenNode struct {
	Played          []float64
	Costs           []float64
	FinalLocalAlpha float64 `json:",omitempty"`
	Traffic         TrafficStats
}

type goldenDeployment struct {
	Rounds        int          `json:",omitempty"`
	FinalAlpha    float64      `json:",omitempty"`
	MasterTraffic TrafficStats `json:",omitempty"`
	Nodes         []goldenNode
}

type goldenDrill struct {
	Rounds     int
	Crashed    []int
	Survivors  []int
	FinalAlpha float64
	// Played maps each survivor to its played shares.
	Played map[int][]float64
}

type goldenFile struct {
	FullyDistributed map[string]goldenDeployment
	MasterWorker     map[string]goldenDeployment
	Drills           map[string]goldenDrill
}

type goldenCase struct {
	n, rounds int
	codec     wire.Codec
	opts      []core.Option
}

var goldenCases = map[string]goldenCase{
	"binary_n5_r15":        {n: 5, rounds: 15, codec: wire.Binary},
	"json_n4_r10_alpha005": {n: 4, rounds: 10, codec: wire.JSON, opts: []core.Option{core.WithInitialAlpha(0.05)}},
	"binary_n7_r20_scale8": {n: 7, rounds: 20, codec: wire.Binary, opts: []core.Option{core.WithStepRuleScale(8)}},
}

// goldenDrills are the master's crash drills: n workers, rounds, and the
// round at which each crashing worker fail-stops. They run on the
// virtual-time runner, and each must match the golden file under every
// scheduler seed.
var goldenDrills = map[string]struct {
	n, rounds int
	crashAt   map[int]int
}{
	"no_failures":    {n: 5, rounds: 12},
	"worker_crash":   {n: 5, rounds: 12, crashAt: map[int]int{2: 4}},
	"multiple_crash": {n: 6, rounds: 14, crashAt: map[int]int{1: 3, 4: 7}},
}

func TestGoldenDrivers(t *testing.T) {
	got := goldenFile{
		FullyDistributed: map[string]goldenDeployment{},
		MasterWorker:     map[string]goldenDeployment{},
		Drills:           map[string]goldenDrill{},
	}
	for name, c := range goldenCases {
		got.FullyDistributed[name] = goldenFD(t, c)
		got.MasterWorker[name] = goldenMW(t, c)
	}
	for name, d := range goldenDrills {
		got.Drills[name] = goldenMasterDrill(t, 0, d.n, d.rounds, d.crashAt)
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name := range goldenCases {
		if !reflect.DeepEqual(got.FullyDistributed[name], want.FullyDistributed[name]) {
			t.Errorf("fully-distributed %s diverged from the golden file:\n got %+v\nwant %+v", name, got.FullyDistributed[name], want.FullyDistributed[name])
		}
		if !reflect.DeepEqual(got.MasterWorker[name], want.MasterWorker[name]) {
			t.Errorf("master-worker %s diverged from the golden file:\n got %+v\nwant %+v", name, got.MasterWorker[name], want.MasterWorker[name])
		}
	}
	for name, d := range goldenDrills {
		for seed := int64(0); seed < simSeeds; seed++ {
			if got := goldenMasterDrill(t, seed, d.n, d.rounds, d.crashAt); !reflect.DeepEqual(got, want.Drills[name]) {
				t.Errorf("crash drill %s, seed %d, diverged from the golden file:\n got %+v\nwant %+v", name, seed, got, want.Drills[name])
			}
		}
	}
}

func goldenSources(n int) []CostSource {
	srcs := make([]CostSource, n)
	for i := range srcs {
		srcs[i] = instSource(i)
	}
	return srcs
}

func goldenFD(t *testing.T, c goldenCase) goldenDeployment {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	net := NewMemNet(WithCodec(c.codec))
	res, err := FullyDistributedDeployment(ctx, memTransports(net, c.n), simplex.Uniform(c.n), c.rounds, goldenSources(c.n), c.opts...)
	if err != nil {
		t.Fatal(err)
	}
	var d goldenDeployment
	for _, r := range res {
		d.Nodes = append(d.Nodes, goldenNode{Played: r.Played, Costs: r.Costs, FinalLocalAlpha: r.FinalLocalAlpha, Traffic: r.Traffic})
	}
	return d
}

func goldenMW(t *testing.T, c goldenCase) goldenDeployment {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	net := NewMemNet(WithCodec(c.codec))
	m, ws, err := MasterWorkerDeployment(ctx, memTransports(net, c.n+1), simplex.Uniform(c.n), c.rounds, goldenSources(c.n), c.opts...)
	if err != nil {
		t.Fatal(err)
	}
	d := goldenDeployment{Rounds: m.Rounds, FinalAlpha: m.FinalAlpha, MasterTraffic: m.Traffic}
	for _, w := range ws {
		d.Nodes = append(d.Nodes, goldenNode{Played: w.Played, Costs: w.Costs, Traffic: w.Traffic})
	}
	return d
}

// goldenMasterDrill runs a fail-stop master against n workers on the
// runner under seed, those in crashAt fail-stopping at their round, and
// records its outcome and the survivors' played shares.
func goldenMasterDrill(t *testing.T, seed int64, n, rounds int, crashAt map[int]int) goldenDrill {
	t.Helper()
	master, workers := simMasterWorker(t, seed, ChaosConfig{}, simplex.Uniform(n), rounds,
		MasterConfig{RoundTimeout: 300 * time.Millisecond}, crashingSources(n, crashAt), []core.Option{core.WithInitialAlpha(0.05)}, nil)
	if master.err != nil {
		t.Fatalf("master: %v", master.err)
	}
	res := master.result()
	d := goldenDrill{Rounds: res.Rounds, Crashed: res.Crashed, Survivors: res.Survivors, FinalAlpha: res.FinalAlpha, Played: map[int][]float64{}}
	sort.Ints(d.Crashed)
	for _, i := range res.Survivors {
		if workers[i].err == nil {
			d.Played[i] = workers[i].res.Played
		}
	}
	return d
}

// crashingSources gives worker i instSource(i), failing from round
// crashAt[i] on for the workers crashAt lists.
func crashingSources(n int, crashAt map[int]int) []CostSource {
	srcs := make([]CostSource, n)
	for i := range srcs {
		srcs[i] = instSource(i)
		if at, ok := crashAt[i]; ok {
			srcs[i] = crashingSource{inner: srcs[i], crashAt: at}
		}
	}
	return srcs
}

// crashingSource wraps a cost source and fails permanently at a given
// round, simulating a fail-stop worker crash at a deterministic point.
type crashingSource struct {
	inner   CostSource
	crashAt int
}

func (c crashingSource) Observe(round int, x float64) (float64, costfn.Func, error) {
	if round >= c.crashAt {
		return 0, nil, errors.New("worker crashed")
	}
	return c.inner.Observe(round, x)
}
