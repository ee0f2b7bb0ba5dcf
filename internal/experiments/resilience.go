package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"dolbie/internal/cluster"
	"dolbie/internal/core"
	"dolbie/internal/costfn"
	"dolbie/internal/mlsim"
	"dolbie/internal/simplex"
)

// ResilienceTable exercises the fail-stop extension end to end on the
// simulated training cluster: a full fail-stop master-worker deployment
// runs over real protocol messages while one worker crashes mid-run. The
// table reports the global latency immediately before the crash, at the
// crash round (which pays one detection timeout), and after the survivors
// re-balance — demonstrating that the crashed worker's load is reabsorbed
// within a few rounds.
func ResilienceTable(cfg Config) (Table, error) {
	if err := cfg.validate(); err != nil {
		return Table{}, err
	}
	n := cfg.N
	if n > 12 {
		n = 12 // the deployment runs real goroutines per worker; keep it tight
	}
	rounds := cfg.Rounds
	crashRound := rounds / 2
	crashWorker := 1

	// Pre-realize environments so the cost feedback is the calibrated
	// training workload, observed per worker.
	cl, err := mlsim.New(mlsim.Config{N: n, Model: cfg.Model, BatchSize: cfg.BatchSize, Seed: cfg.Seed})
	if err != nil {
		return Table{}, err
	}
	envs := make([]mlsim.Env, rounds)
	for t := range envs {
		envs[t] = cl.NextEnv()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	net := cluster.NewMemNet()
	transports := make([]cluster.Transport, n+1)
	for i := range transports {
		transports[i] = net.Node(i)
	}

	type roundCost struct {
		round int
		cost  float64
	}
	var (
		mu      sync.Mutex
		maxCost = map[int]float64{} // round -> max observed latency
	)
	recordCost := func(rc roundCost) {
		mu.Lock()
		if rc.cost > maxCost[rc.round] {
			maxCost[rc.round] = rc.cost
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := cluster.FuncSource(func(round int, x float64) (float64, costfn.Func, error) {
				if i == crashWorker && round >= crashRound {
					return 0, nil, errors.New("injected crash")
				}
				f := envs[round-1].Funcs[i]
				cost := f.Eval(x)
				recordCost(roundCost{round: round, cost: cost})
				return cost, f, nil
			})
			//nolint:errcheck // the crashed worker exits with its injected error
			cluster.RunWorker(ctx, transports[i], i, n, 1/float64(n), rounds, src)
		}(i)
	}
	res, err := cluster.RunMaster(ctx, transports[n], simplex.Uniform(n), rounds,
		cluster.MasterConfig{RoundTimeout: 300 * time.Millisecond},
		core.WithInitialAlpha(cfg.Alpha1), core.WithStepRuleScale(float64(cfg.BatchSize)))
	if err != nil {
		return Table{}, fmt.Errorf("experiments: fail-stop deployment: %w", err)
	}
	wg.Wait()

	tab := Table{
		ID: "resilience",
		Title: fmt.Sprintf("Fail-stop recovery on the training cluster (%s, N=%d, crash of worker %d at round %d)",
			cfg.Model.Name, n, crashWorker, crashRound),
		Columns: []string{"phase", "round", "global latency (s)"},
	}
	probe := func(name string, round int) {
		mu.Lock()
		cost := maxCost[round]
		mu.Unlock()
		tab.Rows = append(tab.Rows, []string{name, fmt.Sprintf("%d", round), fmt.Sprintf("%.3f", cost)})
	}
	probe("before crash", crashRound-1)
	probe("crash detected", crashRound)
	probe("recovered +2", crashRound+2)
	probe("recovered +10", minInt(crashRound+10, rounds))
	probe("final", rounds)

	if len(res.Crashed) == 1 && res.Crashed[0] == crashWorker {
		tab.Notes = append(tab.Notes, fmt.Sprintf(
			"worker %d detected as crashed and removed; %d survivors completed all %d rounds",
			crashWorker, len(res.Survivors), res.Rounds))
	} else {
		tab.Notes = append(tab.Notes, fmt.Sprintf("WARNING: crash detection unexpected: %v", res.Crashed))
	}
	return tab, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// The chaos drills' fixed geometry, shared by -fig chaos and the
// committed BENCH_chaos.json (ChaosJSON, written by dolbie-bench -chaos).
const (
	chaosPeers      = 4
	chaosRounds     = 30
	chaosCrashNode  = 1
	chaosCrashRound = 10
	chaosPartFirst  = 5
	chaosPartLast   = 7
)

// ChaosScenario is one fault class of the chaos drills and what the
// survivors paid for it. The JSON fields are BENCH_chaos.json's.
type ChaosScenario struct {
	// Name is the fault class: loss, crash or partition.
	Name string `json:"-"`
	// Injected describes the injected fault.
	Injected string `json:"-"`
	// DetectionRound is the protocol round in which the survivors
	// declared the victim crashed (0 when nothing was evicted).
	DetectionRound int `json:"detection_round"`
	// RoundsToReabsorb counts rounds from detection until the survivors'
	// played shares again sum to 1 (0 when no load was ever lost).
	RoundsToReabsorb int `json:"rounds_to_reabsorb"`
	// LatencyPenaltyPct is the relative increase of the mean per-round
	// maximum cost over the post-detection window, against the same
	// window of the fault-free run: the price of running one peer short.
	LatencyPenaltyPct float64 `json:"latency_penalty_pct"`
	// Evicted lists the peers the survivors declared crashed.
	Evicted []int `json:"evicted"`
	// TrajectoryMatchesFaultFree reports whether every surviving peer
	// played exactly the fault-free trajectory — true for fault classes
	// the reliability layer fully masks (message loss), meaningless (and
	// false) once a peer is lost.
	TrajectoryMatchesFaultFree bool `json:"trajectory_matches_fault_free"`
	// Survivors counts the peers left after the eviction.
	Survivors int `json:"-"`
	// Faults counts the chaos events behind the scenario. Retransmissions
	// give the lossy classes timing-dependent attempt counts, so they are
	// kept out of the reproducible report.
	Faults cluster.ChaosStats `json:"-"`
}

// ChaosDrills runs the fail-stop-tolerant fully-distributed deployment
// (Algorithm 2 with peer evictions) of chaosPeers peers for chaosRounds
// rounds under the deterministic chaos transport, one drill per fault
// class: message loss masked by the reliability layer, a node crash, and
// an asymmetric link partition. Each is measured against a fault-free
// reference run: the round the survivors detected the fault, how many
// further rounds they needed to reabsorb the lost workload share, and
// the latency penalty of the smaller deployment.
func ChaosDrills(seed int64) ([]ChaosScenario, error) {
	uniform := func(d time.Duration) func(int) time.Duration {
		return func(int) time.Duration { return d }
	}
	baseline, _, err := runChaosDrill(nil, false, uniform(2*time.Second))
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos baseline: %w", err)
	}
	drills := []struct {
		name, injected string
		cfg            *cluster.ChaosConfig
		reliable       bool
		timeout        func(int) time.Duration
	}{
		{
			name:     "loss",
			injected: "drop 20% / dup 10% / reorder 10% under Reliable",
			cfg: &cluster.ChaosConfig{
				Seed:          seed,
				DropProb:      0.2,
				DuplicateProb: 0.1,
				ReorderProb:   0.1,
				Jitter:        500 * time.Microsecond,
			},
			reliable: true,
			timeout:  uniform(5 * time.Second),
		},
		{
			name:     "crash",
			injected: fmt.Sprintf("peer %d fail-stops at round %d", chaosCrashNode, chaosCrashRound),
			cfg: &cluster.ChaosConfig{
				Seed:    seed,
				Crashes: []cluster.ChaosCrash{{Node: chaosCrashNode, Round: chaosCrashRound}},
			},
			timeout: uniform(150 * time.Millisecond),
		},
		{
			name:     "partition",
			injected: fmt.Sprintf("link 0->1 cut rounds %d-%d", chaosPartFirst, chaosPartLast),
			cfg: &cluster.ChaosConfig{
				Seed:  seed,
				Delay: 10 * time.Millisecond,
				Partitions: []cluster.ChaosPartition{
					{From: 0, To: 1, FromRound: chaosPartFirst, ToRound: chaosPartLast},
				},
			},
			// Staggered detection deadlines (see the fault model in
			// DESIGN.md): peer 1 is the only peer the partition actually
			// silences, so it gets the short deadline and wins the
			// detection race against the peers that merely stall behind it.
			timeout: func(i int) time.Duration {
				if i == 1 {
					return 250 * time.Millisecond
				}
				return 700 * time.Millisecond
			},
		},
	}
	out := make([]ChaosScenario, 0, len(drills))
	for _, d := range drills {
		res, faults, err := runChaosDrill(d.cfg, d.reliable, d.timeout)
		if err == nil {
			var sc ChaosScenario
			sc, err = chaosMeasure(res, baseline)
			sc.Name, sc.Injected, sc.Faults = d.name, d.injected, faults
			out = append(out, sc)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos %s: %w", d.name, err)
		}
	}
	return out, nil
}

// ChaosJSON renders drills, run under seed, as the BENCH_chaos.json
// document: the drills' geometry and seed, then each scenario by name.
func ChaosJSON(seed int64, drills []ChaosScenario) ([]byte, error) {
	rep := struct {
		Peers     int                      `json:"peers"`
		Rounds    int                      `json:"rounds"`
		Seed      int64                    `json:"seed"`
		Scenarios map[string]ChaosScenario `json:"scenarios"`
	}{chaosPeers, chaosRounds, seed, make(map[string]ChaosScenario, len(drills))}
	for _, sc := range drills {
		rep.Scenarios[sc.Name] = sc
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	return append(raw, '\n'), err
}

// ChaosTable renders ChaosDrills under cfg.Seed, one row per fault
// class.
func ChaosTable(cfg Config) (Table, error) {
	if err := cfg.validate(); err != nil {
		return Table{}, err
	}
	drills, err := ChaosDrills(cfg.Seed)
	if err != nil {
		return Table{}, err
	}
	tab := Table{
		ID: "chaos",
		Title: fmt.Sprintf("Chaos transport vs. the fail-stop fully-distributed deployment (N=%d, T=%d, seed %d)",
			chaosPeers, chaosRounds, cfg.Seed),
		Columns: []string{"fault class", "injected", "detection round", "rounds to reabsorb", "latency penalty", "evicted"},
	}
	for _, sc := range drills {
		penalty := fmt.Sprintf("%+.1f%%", sc.LatencyPenaltyPct)
		if len(sc.Evicted) == 0 {
			tab.Rows = append(tab.Rows, []string{sc.Name, sc.Injected, "-", "-", penalty, "none"})
			if sc.TrajectoryMatchesFaultFree {
				tab.Notes = append(tab.Notes, fmt.Sprintf("%s: %d drops / %d duplicates / %d reorders injected, trajectory identical to the fault-free run",
					sc.Name, sc.Faults.Drops, sc.Faults.Duplicates, sc.Faults.Reorders))
			}
			continue
		}
		tab.Rows = append(tab.Rows, []string{sc.Name, sc.Injected,
			fmt.Sprintf("%d", sc.DetectionRound), fmt.Sprintf("%d", sc.RoundsToReabsorb), penalty, fmt.Sprintf("%v", sc.Evicted)})
		tab.Notes = append(tab.Notes, fmt.Sprintf("%s: peer %d removed in round %d, %d survivors rebalanced by round %d",
			sc.Name, sc.Evicted[0], sc.DetectionRound, sc.Survivors, sc.DetectionRound+sc.RoundsToReabsorb))
	}
	return tab, nil
}

// runChaosDrill runs one fail-stop fully-distributed deployment over
// MemNet, optionally under a chaos wrapper (and a Reliable wrapper above
// it for the lossy fault classes), with a per-peer detection deadline.
func runChaosDrill(ccfg *cluster.ChaosConfig, reliable bool, timeout func(int) time.Duration) ([]cluster.ElasticPeerResult, cluster.ChaosStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	net := cluster.NewMemNet()
	var chaos *cluster.Chaos
	if ccfg != nil {
		chaos = cluster.NewChaos(*ccfg)
	}
	transports := make([]cluster.Transport, chaosPeers)
	for i := range transports {
		tr := cluster.Transport(net.Node(i))
		if chaos != nil {
			tr = chaos.Wrap(i, tr)
		}
		if reliable {
			tr = cluster.NewReliable(i, tr, 5*time.Millisecond)
		}
		transports[i] = tr
	}
	defer func() {
		for _, tr := range transports {
			tr.Close() //nolint:errcheck // best-effort teardown
		}
	}()

	// The chaos sources deliberately give every peer an interior min-max
	// share (mild intercepts) and keep the consensus straggler away from
	// the scheduled fault victims — the regime the fail-stop protocol
	// supports (DESIGN.md, "Fault model").
	sources := make([]cluster.CostSource, chaosPeers)
	for i := range sources {
		f := costfn.Affine{Slope: float64(i + 1), Intercept: 0.2 * float64(i)}
		sources[i] = cluster.FuncSource(func(round int, x float64) (float64, costfn.Func, error) {
			return f.Eval(x), f, nil
		})
	}
	x0 := simplex.Uniform(chaosPeers)
	res := make([]cluster.ElasticPeerResult, chaosPeers)
	errs := make([]error, chaosPeers)
	var wg sync.WaitGroup
	for i := 0; i < chaosPeers; i++ {
		ec := cluster.ElasticPeerConfig{RoundTimeout: timeout(i)}
		wg.Add(1)
		go func(i int, ec cluster.ElasticPeerConfig) {
			defer wg.Done()
			res[i], errs[i] = cluster.RunElasticPeer(ctx, transports[i], i, x0, chaosRounds, sources[i], ec)
		}(i, ec)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, cluster.ChaosStats{}, fmt.Errorf("peer %d: %w", i, err)
		}
	}
	var stats cluster.ChaosStats
	if chaos != nil {
		stats = chaos.Stats()
	}
	return res, stats, nil
}

// chaosMeasure derives a drill's measurements from its results:
// detection is the earliest survivor eviction record, reabsorption the
// first round from detection whose surviving played shares sum to 1
// again, and the penalty the relative increase of the mean per-round
// maximum cost from detection onward against the fault-free baseline.
func chaosMeasure(res, baseline []cluster.ElasticPeerResult) (ChaosScenario, error) {
	var sc ChaosScenario
	evicted := make(map[int]bool)
	for _, r := range res {
		for _, v := range r.Evicted {
			evicted[v] = true
		}
	}
	sc.Evicted = make([]int, 0, len(evicted))
	for v := range evicted {
		sc.Evicted = append(sc.Evicted, v)
	}
	sort.Ints(sc.Evicted)
	if len(sc.Evicted) == 0 {
		// Nothing was lost: the penalty window is the whole run.
		sc.TrajectoryMatchesFaultFree = true
		for i := range res {
			for r, x := range res[i].Played {
				if baseline[i].Played[r] != x {
					sc.TrajectoryMatchesFaultFree = false
				}
			}
		}
		sc.LatencyPenaltyPct = chaosPenalty(res, baseline, 1)
		return sc, nil
	}
	victim := sc.Evicted[0]
	var survivors []int
	for i := range res {
		if evicted[i] {
			continue
		}
		survivors = append(survivors, i)
		if r := res[i].EvictionRound[victim]; sc.DetectionRound == 0 || (r > 0 && r < sc.DetectionRound) {
			sc.DetectionRound = r
		}
	}
	sc.Survivors = len(survivors)
	if sc.DetectionRound == 0 {
		return sc, fmt.Errorf("no survivor has an eviction record for victim %d", victim)
	}
	for r := sc.DetectionRound; r <= chaosRounds; r++ {
		var sum float64
		for _, i := range survivors {
			if len(res[i].Played) >= r {
				sum += res[i].Played[r-1]
			}
		}
		if math.Abs(sum-1) < 1e-9 {
			sc.RoundsToReabsorb = r - sc.DetectionRound
			sc.LatencyPenaltyPct = chaosPenalty(res, baseline, sc.DetectionRound)
			return sc, nil
		}
	}
	return sc, fmt.Errorf("survivors never reabsorbed the victim's load")
}

// chaosPenalty is the min-max objective penalty: the relative increase
// of the mean per-round maximum realized cost from round `from` onward,
// against the fault-free baseline over the same window.
func chaosPenalty(res, baseline []cluster.ElasticPeerResult, from int) float64 {
	meanMax := func(rs []cluster.ElasticPeerResult) float64 {
		var total float64
		var rounds int
		for r := from; r <= chaosRounds; r++ {
			maxCost := math.Inf(-1)
			for _, pr := range rs {
				if len(pr.Costs) >= r && pr.Costs[r-1] > maxCost {
					maxCost = pr.Costs[r-1]
				}
			}
			total += maxCost
			rounds++
		}
		return total / float64(rounds)
	}
	free := meanMax(baseline)
	return (meanMax(res) - free) / free * 100
}
