package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"dolbie/internal/cluster"
	"dolbie/internal/costfn"
	"dolbie/internal/simplex"
)

// This file implements the -chaos benchmark mode: it runs the
// fault-tolerant fully-distributed deployment (Algorithm 2 with
// fail-stop evictions) under the deterministic chaos transport, one
// scenario per fault class, and reports how many rounds the survivors
// need to reabsorb the lost workload and what latency penalty the
// smaller deployment pays against a fault-free run. Everything is
// seeded, so the committed BENCH_chaos.json reproduces bit for bit.

const (
	chaosPeers  = 4
	chaosRounds = 30
	chaosSeed   = 1
)

// chaosScenarioStats is one fault class's outcome.
type chaosScenarioStats struct {
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

	// injected counts the chaos events behind the scenario. Logged, but
	// kept out of the JSON report: retransmissions give the lossy
	// classes timing-dependent attempt counts, and the report must
	// reproduce bit for bit.
	injected cluster.ChaosStats
}

// chaosReport is the BENCH_chaos.json document.
type chaosReport struct {
	Peers     int                           `json:"peers"`
	Rounds    int                           `json:"rounds"`
	Seed      int64                         `json:"seed"`
	Scenarios map[string]chaosScenarioStats `json:"scenarios"`
}

// chaosSources builds the deterministic cost functions shared by every
// scenario: slope and intercept grow mildly with the peer id, so the
// consensus straggler is the highest-cost survivor and never the
// scheduled fault victim (peer 0 or 1) — the regime the fail-stop
// protocol supports (see the fault model in DESIGN.md) — while the
// min-max equilibrium still keeps every survivor at a positive share.
func chaosSources(n int) []cluster.CostSource {
	sources := make([]cluster.CostSource, n)
	for i := range sources {
		f := costfn.Affine{Slope: float64(i + 1), Intercept: 0.2 * float64(i)}
		sources[i] = cluster.FuncSource(func(round int, x float64) (float64, costfn.Func, error) {
			return f.Eval(x), f, nil
		})
	}
	return sources
}

// runChaosBench measures every fault class and writes the report.
func runChaosBench(outPath string, out io.Writer) error {
	fmt.Fprintf(out, "chaos bench: %d peers, %d rounds, seed %d\n", chaosPeers, chaosRounds, chaosSeed)
	baseline, err := chaosBaseline()
	if err != nil {
		return err
	}
	rep := chaosReport{
		Peers:     chaosPeers,
		Rounds:    chaosRounds,
		Seed:      chaosSeed,
		Scenarios: make(map[string]chaosScenarioStats),
	}
	type scenario struct {
		name string
		run  func([]cluster.ElasticPeerResult) (chaosScenarioStats, error)
	}
	for _, sc := range []scenario{
		{"loss", chaosLossScenario},
		{"crash", chaosCrashScenario},
		{"partition", chaosPartitionScenario},
	} {
		stats, err := sc.run(baseline)
		if err != nil {
			return fmt.Errorf("%s scenario: %w", sc.name, err)
		}
		rep.Scenarios[sc.name] = stats
		fmt.Fprintf(out, "  %-9s detection round %2d, reabsorbed in %d rounds, latency penalty %+.1f%%, evicted %v, injected %+v\n",
			sc.name, stats.DetectionRound, stats.RoundsToReabsorb, stats.LatencyPenaltyPct, stats.Evicted, stats.injected)
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", outPath)
	return nil
}

// chaosBaseline is the fault-free reference run of the fail-stop
// deployment, against which the latency penalties are measured.
func chaosBaseline() ([]cluster.ElasticPeerResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	net := cluster.NewMemNet()
	transports := make([]cluster.Transport, chaosPeers)
	for i := range transports {
		transports[i] = net.Node(i)
	}
	defer closeTransports(transports)
	return chaosDeploy(ctx, transports, 2*time.Second)
}

// chaosDeploy runs the fail-stop fully-distributed deployment with one
// detection deadline for every peer.
func chaosDeploy(ctx context.Context, transports []cluster.Transport, timeout time.Duration) ([]cluster.ElasticPeerResult, error) {
	return cluster.ElasticDeployment(ctx, transports, cluster.ElasticDeploymentConfig{
		X0:      simplex.Uniform(chaosPeers),
		Rounds:  chaosRounds,
		Sources: chaosSources(chaosPeers),
		Peer:    cluster.ElasticPeerConfig{RoundTimeout: timeout},
	})
}

// chaosLossScenario runs drops, duplication, and reordering under the
// reliability layer: no peer is lost, so the measurement is that the
// trajectory stays exactly the fault-free one (zero penalty) while the
// chaos layer injects real faults underneath.
func chaosLossScenario(baseline []cluster.ElasticPeerResult) (chaosScenarioStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	chaos := cluster.NewChaos(cluster.ChaosConfig{
		Seed:          chaosSeed,
		DropProb:      0.2,
		DuplicateProb: 0.1,
		ReorderProb:   0.1,
		Jitter:        500 * time.Microsecond,
	})
	net := cluster.NewMemNet()
	transports := make([]cluster.Transport, chaosPeers)
	for i := range transports {
		transports[i] = cluster.NewReliable(i, chaos.Wrap(i, net.Node(i)), 5*time.Millisecond)
	}
	defer closeTransports(transports)
	res, err := chaosDeploy(ctx, transports, 5*time.Second)
	if err != nil {
		return chaosScenarioStats{}, err
	}
	return chaosStatsFor(res, baseline, chaos.Stats())
}

// chaosCrashScenario fail-stops peer 1 at round 10 and measures how the
// three survivors detect, evict, and reabsorb its workload share.
func chaosCrashScenario(baseline []cluster.ElasticPeerResult) (chaosScenarioStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	chaos := cluster.NewChaos(cluster.ChaosConfig{
		Seed:    chaosSeed,
		Crashes: []cluster.ChaosCrash{{Node: 1, Round: 10}},
	})
	net := cluster.NewMemNet()
	transports := make([]cluster.Transport, chaosPeers)
	for i := range transports {
		transports[i] = chaos.Wrap(i, net.Node(i))
	}
	defer closeTransports(transports)
	res, err := chaosDeploy(ctx, transports, 150*time.Millisecond)
	if err != nil {
		return chaosScenarioStats{}, err
	}
	return chaosStatsFor(res, baseline, chaos.Stats())
}

// chaosPartitionScenario partitions the 0 -> 1 link for three rounds.
// Peer 1, the only peer that stops hearing from 0, runs with a shorter
// detection timeout than the rest — the staggered-deadline deployment
// pattern from the operations runbook — so it wins the detection race,
// evicts peer 0, and the notice fail-stops the still-living victim.
func chaosPartitionScenario(baseline []cluster.ElasticPeerResult) (chaosScenarioStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	chaos := cluster.NewChaos(cluster.ChaosConfig{
		Seed:       chaosSeed,
		Delay:      10 * time.Millisecond,
		Partitions: []cluster.ChaosPartition{{From: 0, To: 1, FromRound: 5, ToRound: 7}},
	})
	net := cluster.NewMemNet()
	transports := make([]cluster.Transport, chaosPeers)
	for i := range transports {
		transports[i] = chaos.Wrap(i, net.Node(i))
	}
	defer closeTransports(transports)
	x0 := simplex.Uniform(chaosPeers)
	sources := chaosSources(chaosPeers)
	res := make([]cluster.ElasticPeerResult, chaosPeers)
	errs := make([]error, chaosPeers)
	var wg sync.WaitGroup
	for i := 0; i < chaosPeers; i++ {
		ec := cluster.ElasticPeerConfig{RoundTimeout: 700 * time.Millisecond}
		if i == 1 {
			ec.RoundTimeout = 250 * time.Millisecond
		}
		wg.Add(1)
		go func(i int, ec cluster.ElasticPeerConfig) {
			defer wg.Done()
			res[i], errs[i] = cluster.RunElasticPeer(ctx, transports[i], i, x0, chaosRounds, sources[i], ec)
		}(i, ec)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return chaosScenarioStats{}, fmt.Errorf("peer %d: %w", i, err)
		}
	}
	return chaosStatsFor(res, baseline, chaos.Stats())
}

// chaosStatsFor derives the scenario measurements from the deployment
// results: the detection round comes from the survivors' eviction
// records, reabsorption from their played shares.
func chaosStatsFor(res, baseline []cluster.ElasticPeerResult, injected cluster.ChaosStats) (chaosScenarioStats, error) {
	stats := chaosScenarioStats{injected: injected}
	evicted := make(map[int]bool)
	for _, r := range res {
		for _, v := range r.Evicted {
			evicted[v] = true
		}
	}
	stats.Evicted = make([]int, 0, len(evicted))
	for v := range evicted {
		stats.Evicted = append(stats.Evicted, v)
	}
	sort.Ints(stats.Evicted)
	stats.TrajectoryMatchesFaultFree = len(stats.Evicted) == 0
	for i := range res {
		if !stats.TrajectoryMatchesFaultFree {
			break
		}
		for r, x := range res[i].Played {
			if baseline[i].Played[r] != x {
				stats.TrajectoryMatchesFaultFree = false
				break
			}
		}
	}
	if len(stats.Evicted) == 0 {
		// Nothing was lost; the penalty window is the whole run.
		stats.LatencyPenaltyPct = chaosLatencyPenalty(res, baseline, 1)
		return stats, nil
	}
	victim := stats.Evicted[0]
	survivors := make([]int, 0, len(res))
	detection := 0
	for i := range res {
		if evicted[i] {
			continue
		}
		survivors = append(survivors, i)
		if r := res[i].EvictionRound[victim]; detection == 0 || (r > 0 && r < detection) {
			detection = r
		}
	}
	if detection == 0 {
		return stats, fmt.Errorf("no survivor has an eviction record for victim %d", victim)
	}
	stats.DetectionRound = detection
	reabsorbed := -1
	for r := detection; r <= chaosRounds; r++ {
		var sum float64
		for _, i := range survivors {
			if len(res[i].Played) >= r {
				sum += res[i].Played[r-1]
			}
		}
		if math.Abs(sum-1) < 1e-9 {
			reabsorbed = r
			break
		}
	}
	if reabsorbed < 0 {
		return stats, fmt.Errorf("survivors never reabsorbed the victim's load")
	}
	stats.RoundsToReabsorb = reabsorbed - detection
	stats.LatencyPenaltyPct = chaosLatencyPenalty(res, baseline, detection)
	return stats, nil
}

// chaosLatencyPenalty compares the mean per-round maximum realized cost
// (the min-max objective) from `from` onward against the fault-free
// baseline over the same window.
func chaosLatencyPenalty(res, baseline []cluster.ElasticPeerResult, from int) float64 {
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

func closeTransports(ts []cluster.Transport) {
	for _, tr := range ts {
		tr.Close() //nolint:errcheck // best-effort teardown
	}
}
