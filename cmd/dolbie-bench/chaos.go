package main

import (
	"fmt"
	"io"
	"os"

	"dolbie/internal/experiments"
)

// This file implements the -chaos benchmark mode: it writes the chaos
// drills of internal/experiments (the fail-stop fully-distributed
// deployment under the deterministic chaos transport, one scenario per
// fault class, the same runs as -fig chaos) as BENCH_chaos.json: how
// many rounds the survivors need to reabsorb the lost workload and what
// latency penalty the smaller deployment pays against a fault-free run.
// Everything is seeded, so the committed report reproduces bit for bit.

const chaosSeed = 1

// runChaosBench measures every fault class and writes the report.
func runChaosBench(outPath string, out io.Writer) error {
	fmt.Fprintf(out, "chaos bench: seed %d\n", chaosSeed)
	drills, err := experiments.ChaosDrills(chaosSeed)
	if err != nil {
		return err
	}
	for _, sc := range drills {
		fmt.Fprintf(out, "  %-9s detection round %2d, reabsorbed in %d rounds, latency penalty %+.1f%%, evicted %v, injected %+v\n",
			sc.Name, sc.DetectionRound, sc.RoundsToReabsorb, sc.LatencyPenaltyPct, sc.Evicted, sc.Faults)
	}
	raw, err := experiments.ChaosJSON(chaosSeed, drills)
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", outPath)
	return nil
}
