package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"dolbie/internal/cluster"
	"dolbie/internal/costfn"
	"dolbie/internal/optimum"
	"dolbie/internal/simplex"
)

// This file implements the -scale benchmark mode: it sweeps deployment
// sizes N ∈ {8, 64, 512, 4096} over the in-memory network under both
// per-round communication patterns of the elastic runtime — the paper's
// flat all-to-all exchange (O(N^2) messages per round, swept up to 512)
// and the hierarchical tree aggregation overlay (~3N messages per
// round, swept to 4096) — and reports throughput, per-worker traffic,
// aggregation depth, and the final min-max gap against the offline
// optimum. The headline measurement is the traffic column: bytes per
// round per worker stays O(1) under the tree overlay while growing O(N)
// flat, which is what lets one deployment scale from the paper's 8
// workers to thousands.

const (
	scaleRounds = 12
	scaleFanout = 8
)

// scaleNs is the sweep; flat runs are capped at scaleFlatMax because
// the all-to-all pattern moves N^2 messages per round.
var scaleNs = []int{8, 64, 512, 4096}

const scaleFlatMax = 512

// scaleRunStats is one (topology, N) cell of the sweep.
type scaleRunStats struct {
	// Topology is "flat" or "tree".
	Topology string `json:"topology"`
	// N is the deployment size.
	N int `json:"n"`
	// Fanout is the aggregation tree fanout (0 for flat runs).
	Fanout int `json:"fanout,omitempty"`
	// AggDepth is the aggregation tree depth (0 for flat runs).
	AggDepth int `json:"agg_depth"`
	// MsgsPerRound is the deployment-wide protocol message count per
	// round (deterministic for a fault-free run).
	MsgsPerRound float64 `json:"msgs_per_round"`
	// BytesPerRoundPerWorker is each worker's mean protocol traffic per
	// round (sent bytes; deterministic for a fault-free run).
	BytesPerRoundPerWorker float64 `json:"bytes_per_round_per_worker"`
	// RoundsPerSec is wall-clock throughput of the whole deployment
	// (timing-dependent; recorded for orientation, not reproduction).
	RoundsPerSec float64 `json:"rounds_per_sec"`
	// FinalMaxCost is the realized min-max objective in the last round.
	FinalMaxCost float64 `json:"final_max_cost"`
	// OptimalMaxCost is the offline instantaneous optimum for the same
	// cost functions.
	OptimalMaxCost float64 `json:"optimal_max_cost"`
	// FinalGapPct is the relative gap of the last round's objective to
	// the offline optimum.
	FinalGapPct float64 `json:"final_gap_pct"`
}

// scaleReport is the BENCH_scale.json document.
type scaleReport struct {
	Rounds int             `json:"rounds"`
	Runs   []scaleRunStats `json:"runs"`
}

// scaleFuncs builds the deterministic heterogeneous cost functions for
// an N-worker deployment: sixteen recurring affine latency profiles, so
// the offline optimum and the consensus dynamics stay non-trivial at
// every N.
func scaleFuncs(n int) []costfn.Func {
	funcs := make([]costfn.Func, n)
	for i := range funcs {
		funcs[i] = costfn.Affine{
			Slope:     float64(i%16 + 1),
			Intercept: 0.05 * float64(i%16),
		}
	}
	return funcs
}

func scaleSources(funcs []costfn.Func) []cluster.CostSource {
	sources := make([]cluster.CostSource, len(funcs))
	for i := range sources {
		f := funcs[i]
		sources[i] = cluster.FuncSource(func(round int, x float64) (float64, costfn.Func, error) {
			return f.Eval(x), f, nil
		})
	}
	return sources
}

// runScaleBench measures every sweep cell and writes the report.
func runScaleBench(outPath string, out io.Writer) error {
	fmt.Fprintf(out, "scale bench: N in %v, %d rounds, tree fanout %d (flat capped at %d)\n",
		scaleNs, scaleRounds, scaleFanout, scaleFlatMax)
	rep := scaleReport{Rounds: scaleRounds}
	for _, topo := range []cluster.Topology{cluster.TopologyFlat, cluster.TopologyTree} {
		for _, n := range scaleNs {
			if topo == cluster.TopologyFlat && n > scaleFlatMax {
				continue
			}
			stats, err := scaleRun(topo, n)
			if err != nil {
				return fmt.Errorf("%s N=%d: %w", topo, n, err)
			}
			rep.Runs = append(rep.Runs, stats)
			fmt.Fprintf(out, "  %-4s N=%-5d depth %d  %10.0f msgs/round  %8.1f B/round/worker  %7.1f rounds/s  gap %+.2f%%\n",
				stats.Topology, n, stats.AggDepth, stats.MsgsPerRound,
				stats.BytesPerRoundPerWorker, stats.RoundsPerSec, stats.FinalGapPct)
		}
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

// scaleRun executes one fault-free elastic deployment of size n and
// derives the cell's measurements.
func scaleRun(topo cluster.Topology, n int) (scaleRunStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	net := cluster.NewMemNet(cluster.WithInboxBuffer(4 * n))
	transports := make([]cluster.Transport, n)
	for i := range transports {
		transports[i] = net.Node(i)
	}
	defer closeTransports(transports)
	funcs := scaleFuncs(n)
	dc := cluster.ElasticDeploymentConfig{
		X0:      simplex.Uniform(n),
		Rounds:  scaleRounds,
		Sources: scaleSources(funcs),
		Peer: cluster.ElasticPeerConfig{
			RoundTimeout: 2 * time.Minute,
			Topology:     topo,
			Fanout:       scaleFanout,
		},
	}
	start := time.Now()
	res, err := cluster.ElasticDeployment(ctx, transports, dc)
	if err != nil {
		return scaleRunStats{}, err
	}
	elapsed := time.Since(start)

	stats := scaleRunStats{Topology: topo.String(), N: n}
	if topo == cluster.TopologyTree {
		stats.Fanout = scaleFanout
		stats.AggDepth = res[0].AggDepth
	}
	var msgs, bytes int
	finalMax := 0.0
	for _, r := range res {
		if r.Rounds != scaleRounds {
			return stats, fmt.Errorf("peer %d completed %d rounds, want %d", r.ID, r.Rounds, scaleRounds)
		}
		msgs += r.Traffic.MsgsSent
		bytes += r.Traffic.BytesSent
		if c := r.Costs[scaleRounds-1]; c > finalMax {
			finalMax = c
		}
	}
	stats.MsgsPerRound = float64(msgs) / scaleRounds
	stats.BytesPerRoundPerWorker = float64(bytes) / scaleRounds / float64(n)
	stats.RoundsPerSec = scaleRounds / elapsed.Seconds()
	stats.FinalMaxCost = finalMax
	opt, err := optimum.Solve(funcs, 0)
	if err != nil {
		return stats, fmt.Errorf("offline optimum: %w", err)
	}
	stats.OptimalMaxCost = opt.Value
	stats.FinalGapPct = (finalMax - opt.Value) / opt.Value * 100
	return stats, nil
}

func closeTransports(ts []cluster.Transport) {
	for _, tr := range ts {
		tr.Close() //nolint:errcheck // best-effort teardown
	}
}
