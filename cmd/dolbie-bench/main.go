// Command dolbie-bench regenerates the paper's figures and tables on the
// simulated substrates and prints them as aligned text (optionally also
// CSV files). Experiment IDs follow the paper's figure numbers; run with
// -list to enumerate them.
//
// Examples:
//
//	dolbie-bench -fig fig3                # one realization, Fig. 3
//	dolbie-bench -fig all -quick          # everything, scaled down
//	dolbie-bench -fig fig4 -realizations 100 -csv out/
//	dolbie-bench -wire                    # wire-codec benchmark -> BENCH_wire.json
//	dolbie-bench -chaos                   # fault-tolerance benchmark -> BENCH_chaos.json
//	dolbie-bench -serve                   # data-plane benchmark -> BENCH_serve.json
//	dolbie-bench -scale                   # scaling benchmark -> BENCH_scale.json
//	dolbie-bench -geo                     # geo-distributed serving -> BENCH_geo.json
//
// With -metrics-addr the process serves its runtime gauges (goroutines,
// heap, GC) and /debug/pprof while the experiments run — useful for
// profiling the long Monte-Carlo sweeps.
//
// The -wire mode sidesteps the figure machinery entirely: it runs both
// DOLBIE protocols over real localhost TCP under each wire codec,
// records bytes/round, single-hop allocations, and the metering-path
// allocation overhead, and writes the report to -out (default
// BENCH_wire.json).
//
// The -chaos mode runs the fail-stop-tolerant fully-distributed
// deployment under the deterministic chaos transport, one scenario per
// fault class (message loss, node crash, asymmetric partition), and
// writes rounds-to-reabsorb and the latency penalty against a
// fault-free run to -out (default BENCH_chaos.json).
//
// The -serve mode runs the request-serving data plane under the three
// control policies (DOLBIE closed loop, uniform weighted round-robin,
// join-shortest-queue) on the same seeded traffic realization and
// writes the p99 max-worker latency comparison, shed rates, and
// modeled control bytes/round to -out (default BENCH_serve.json),
// along with a three-tenant per-tenant breakdown and the
// noisy-neighbour isolation drill (a rate-limited bronze tenant spiking
// to 10x its contract must not move the gold tenant's p99 by more than
// 5%, with bronze shedding strictly before gold).
//
// The -geo mode runs three geo-distributed serving scenarios — a
// uniform zero-RTT sanity gate that must reproduce the region-less
// serving path bit for bit, the heterogeneous three-region comparison
// where RTT-penalized DOLBIE must beat the latency-blind ablation on
// global completion p99 (with the distributed-gradient-descent baseline
// alongside), and a region-outage drill scored on the penalized-regret
// ledger — and writes per-region latency percentiles, cross-region
// spill fractions, and regrets to -out (default BENCH_geo.json).
//
// The -scale mode sweeps elastic Algorithm 2 deployments over the
// in-memory network at N in {8, 64, 512, 4096}, flat all-to-all
// aggregation against the hierarchical tree overlay, and writes rounds
// per second, per-worker traffic, aggregation depth, and the final
// min-max gap against the offline optimum to -out (default
// BENCH_scale.json). Per-worker bytes per round stay O(1) under the
// tree overlay while growing O(N) flat.
//
// Wall-clock timing of the admission path and the HTTP ingest path is
// the separate perfbench module's job (perfbench/run.sh, workloads
// admit_batch and ingest_http), which records the host it ran on.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"dolbie/internal/experiments"
	"dolbie/internal/metrics"
	"dolbie/internal/procmodel"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dolbie-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		figID        = flag.String("fig", "fig3", "experiment ID, or \"all\"")
		list         = flag.Bool("list", false, "list experiment IDs and exit")
		quick        = flag.Bool("quick", false, "use the scaled-down quick configuration")
		n            = flag.Int("n", 0, "number of workers (0 = config default)")
		rounds       = flag.Int("rounds", 0, "rounds T (0 = config default)")
		realizations = flag.Int("realizations", 0, "realizations for CI figures (0 = config default)")
		seed         = flag.Int64("seed", 0, "base seed (0 = config default)")
		model        = flag.String("model", "", "model for single-model figures: LeNet5, ResNet18, VGG16")
		csvDir       = flag.String("csv", "", "also write CSV files into this directory")
		ascii        = flag.Bool("ascii", false, "render figures as ASCII charts instead of tables")
		metricsAddr  = flag.String("metrics-addr", "", "serve process gauges on /metrics plus /debug/pprof on this address while the experiments run (empty disables)")
		wireBench    = flag.Bool("wire", false, "run the wire-codec benchmark (TCP deployments per codec) instead of a figure")
		chaosBench   = flag.Bool("chaos", false, "run the fault-tolerance benchmark (fail-stop deployments under the chaos transport) instead of a figure")
		serveBench   = flag.Bool("serve", false, "run the data-plane serving benchmark (DOLBIE vs WRR vs JSQ dispatch) instead of a figure")
		scaleBench   = flag.Bool("scale", false, "run the scaling benchmark (flat vs tree aggregation across deployment sizes) instead of a figure")
		geoBench     = flag.Bool("geo", false, "run the geo-distributed serving benchmark (RTT-penalized vs latency-blind DOLBIE, DGD baseline, region-outage drill) instead of a figure")
		codecName    = flag.String("codec", "all", "wire codec to benchmark in -wire mode: all, or a registry name")
		outPath      = flag.String("out", "", "output file for the benchmark modes (default BENCH_<mode>.json; \"-\" prints without writing)")
	)
	flag.Parse()

	if *wireBench {
		out := *outPath
		if out == "" {
			out = "BENCH_wire.json"
		}
		return runWireBench(*codecName, out, os.Stdout)
	}
	if *chaosBench {
		out := *outPath
		if out == "" {
			out = "BENCH_chaos.json"
		}
		return runChaosBench(out, os.Stdout)
	}
	if *serveBench {
		out := *outPath
		if out == "" {
			out = "BENCH_serve.json"
		}
		return runServeBench(out, os.Stdout)
	}
	if *scaleBench {
		out := *outPath
		if out == "" {
			out = "BENCH_scale.json"
		}
		return runScaleBench(out, os.Stdout)
	}
	if *geoBench {
		out := *outPath
		if out == "" {
			out = "BENCH_geo.json"
		}
		return runGeoBench(out, os.Stdout)
	}

	if *metricsAddr != "" {
		reg := metrics.NewRegistry()
		metrics.RegisterProcessGauges(reg)
		srv, err := metrics.StartServer(*metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", srv.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "dolbie-bench: metrics shutdown:", err)
			}
		}()
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *n > 0 {
		cfg.N = *n
	}
	if *rounds > 0 {
		cfg.Rounds = *rounds
	}
	if *realizations > 0 {
		cfg.Realizations = *realizations
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *model != "" {
		m, err := procmodel.ModelByName(*model)
		if err != nil {
			return err
		}
		cfg.Model = m
	}

	var (
		res experiments.Result
		err error
	)
	if *figID == "all" {
		res, err = experiments.RunAll(cfg)
	} else {
		res, err = experiments.Run(*figID, cfg)
	}
	if err != nil {
		return err
	}
	if *ascii {
		if err := res.RenderCharts(os.Stdout, 100, 24); err != nil {
			return err
		}
	} else if err := res.RenderText(os.Stdout); err != nil {
		return err
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		if err := res.WriteCSV(*csvDir); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote CSV files to %s\n", *csvDir)
	}
	return nil
}
