// Fully-distributed deployment (Algorithm 2) used programmatically: five
// peers, each running in its own goroutine, balance load with no master
// by broadcasting scalar cost/step-size shares and sending decisions only
// to the round's straggler — all over real protocol messages on an
// in-memory network.
//
// This example shows the library's distributed runtime rather than the
// centralized Balancer: the peers never see each other's cost functions,
// matching the paper's privacy model. Everything here comes from the
// public dolbie package — no internal imports. The deployment is also
// instrumented: a shared metrics registry collects the dolbie_core_* and
// dolbie_cluster_* families, and the program prints a few of them the
// way a Prometheus scrape of /metrics would render them.
//
// The -topology flag selects the per-round communication pattern of the
// elastic runtime (dolbie.Topology implements encoding.TextUnmarshaler,
// so it plugs straight into flag.TextVar): "flat" is the paper's
// all-to-all exchange, "tree" aggregates the round consensus up and
// down a k-ary overlay with bit-identical results and ~3N messages per
// round instead of N^2 — compare the msgs-sent column between the two.
//
// Run with: go run ./examples/cluster [-topology flat|tree]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"dolbie"
)

const (
	peers  = 5
	rounds = 60
)

func main() {
	topology := dolbie.TopologyFlat
	flag.TextVar(&topology, "topology", topology, "per-round communication pattern: flat or tree")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// In-memory network; swap for dolbie.ListenTCP to cross processes.
	net := dolbie.NewMemNet()
	transports := make([]dolbie.Transport, peers)
	for i := range transports {
		transports[i] = net.Node(i)
	}

	// Each peer's private cost: affine latency with heterogeneous slopes.
	// Only the realized scalar cost ever leaves the peer.
	slopes := []float64{1, 2, 3, 5, 9}
	sources := make([]dolbie.CostSource, peers)
	for i := range sources {
		i := i
		sources[i] = dolbie.FuncSource(func(_ int, x float64) (float64, dolbie.CostFunc, error) {
			f := dolbie.Affine{Slope: slopes[i], Intercept: 0.02}
			return f.Eval(x), f, nil
		})
	}

	reg := dolbie.NewMetricsRegistry()
	results, err := dolbie.ElasticDeployment(ctx, transports,
		dolbie.ElasticDeploymentConfig{
			X0:      dolbie.Uniform(peers),
			Rounds:  rounds,
			Sources: sources,
			Peer: dolbie.ElasticPeerConfig{
				RoundTimeout: 10 * time.Second,
				Topology:     topology,
				Fanout:       2,
			},
		},
		dolbie.WithInitialAlpha(0.05), dolbie.WithMetrics(reg))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("fully-distributed DOLBIE: %d peers, %d rounds, %s aggregation\n\n", peers, rounds, topology)
	fmt.Println("peer  slope  first-share  last-share  first-cost  last-cost  msgs-sent")
	var firstGlobal, lastGlobal float64
	for i, pr := range results {
		if pr.Costs[0] > firstGlobal {
			firstGlobal = pr.Costs[0]
		}
		if pr.Costs[rounds-1] > lastGlobal {
			lastGlobal = pr.Costs[rounds-1]
		}
		fmt.Printf("%4d  %5.1f  %11.4f  %10.4f  %10.4f  %9.4f  %9d\n",
			i, slopes[i], pr.Played[0], pr.Played[rounds-1],
			pr.Costs[0], pr.Costs[rounds-1], pr.Traffic.MsgsSent)
	}
	fmt.Printf("\nglobal cost: %.4f -> %.4f (%.1f%% reduction, no master, no shared cost functions)\n",
		firstGlobal, lastGlobal, 100*(firstGlobal-lastGlobal)/firstGlobal)

	// A live deployment would serve reg over HTTP with
	// dolbie.StartMetricsServer and let Prometheus scrape /metrics; here
	// we render the exposition in-process and show a sample.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nselected metrics (Prometheus text exposition):")
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "dolbie_core_rounds_total") ||
			strings.HasPrefix(line, "dolbie_core_global_cost") ||
			strings.HasPrefix(line, "dolbie_core_alpha") {
			fmt.Println("  " + line)
		}
	}
}
