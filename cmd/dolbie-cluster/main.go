// Command dolbie-cluster runs a live DOLBIE deployment: real concurrent
// nodes exchanging protocol messages, in either the master-worker
// architecture (Algorithm 1) or the fully-distributed architecture
// (Algorithm 2), over an in-memory network or real TCP sockets on
// localhost. Each worker's cost feedback comes from a seeded synthetic
// load source, and the run reports the decision trajectory and measured
// protocol traffic (reproducing the Section IV-C complexity analysis).
//
// A positive -round-timeout turns on fail-stop handling in either
// architecture: nodes that miss a collection deadline are declared
// crashed and evicted, and the survivors reabsorb their workload. The
// -crash-* and -chaos-* flags inject the faults to recover from through
// the deterministic chaos transport.
//
// With -metrics-addr the deployment is instrumented end to end: a
// metrics server exposes the dolbie_core_*, dolbie_cluster_*, and
// dolbie_process_* families on /metrics (Prometheus text exposition),
// a liveness probe on /healthz, and the runtime profiler under
// /debug/pprof.
//
// Examples:
//
//	dolbie-cluster -mode mw -n 8 -rounds 30
//	dolbie-cluster -mode fd -n 5 -rounds 20 -tcp
//	dolbie-cluster -mode mw -n 8 -rounds 30 -tcp -codec json
//	dolbie-cluster -mode mw -n 8 -rounds 200 -metrics-addr :9090
//	dolbie-cluster -mode mw -n 5 -rounds 12 -round-timeout 300ms -crash-worker 2 -crash-round 4
//	dolbie-cluster -mode fd -n 4 -rounds 30 -round-timeout 150ms -crash-worker 1 -crash-round 10
//	dolbie-cluster -mode fd -n 4 -rounds 30 -round-timeout 500ms -chaos-partition 0:1:5:7 -chaos-delay 10ms
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"dolbie/internal/cluster"
	"dolbie/internal/core"
	"dolbie/internal/metrics"
	"dolbie/internal/simplex"
	"dolbie/internal/wire"
)

// testHookScrape, when non-nil, is called with the metrics server's
// bound address after the deployment completes and before the server
// shuts down — the integration test uses it to scrape /metrics from a
// finished run.
var testHookScrape func(addr string)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dolbie-cluster:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dolbie-cluster", flag.ContinueOnError)
	var (
		mode         = fs.String("mode", "mw", "architecture: mw (master-worker) or fd (fully-distributed)")
		n            = fs.Int("n", 8, "number of workers")
		rounds       = fs.Int("rounds", 30, "online rounds to run")
		useTCP       = fs.Bool("tcp", false, "use real TCP sockets on localhost instead of the in-memory network")
		seed         = fs.Int64("seed", 1, "seed for the synthetic load sources and the chaos layer")
		alpha        = fs.Float64("alpha", 0.05, "DOLBIE initial step size")
		timeout      = fs.Duration("timeout", time.Minute, "deployment deadline")
		crashRound   = fs.Int("crash-round", 0, "round at which -crash-worker fail-stops (0 = no crash)")
		crashID      = fs.Int("crash-worker", 0, "worker/peer that fail-stops at -crash-round")
		dropProb     = fs.Float64("drop", 0, "in-memory network message drop probability; >0 wraps every node in the reliable delivery layer")
		roundTimeout = fs.Duration("round-timeout", 0, "per-round collection deadline before silent nodes are declared crashed and evicted (0 = wait forever, no fail-stop handling)")
		chaosDelay   = fs.Duration("chaos-delay", 0, "per-delivery latency injected by the chaos layer")
		partition    = fs.String("chaos-partition", "", "asymmetric partition as from:to:firstRound:lastRound (e.g. 0:1:5:7)")
		metricsAddr  = fs.String("metrics-addr", "", "serve /metrics, /healthz, and /debug/pprof on this address (empty disables)")
		codecName    = fs.String("codec", wire.Default.Name(), "wire codec for protocol frames: "+strings.Join(wire.Names(), " or "))
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 2 {
		return fmt.Errorf("need at least 2 workers, got %d", *n)
	}
	if *rounds < 1 {
		return fmt.Errorf("need at least 1 round, got %d", *rounds)
	}
	if *roundTimeout < 0 {
		return fmt.Errorf("-round-timeout must not be negative, got %v", *roundTimeout)
	}
	nodes := *n
	switch *mode {
	case "mw":
		nodes = *n + 1
	case "fd":
	default:
		return fmt.Errorf("unknown mode %q (want mw or fd)", *mode)
	}
	codec, err := wire.ByName(*codecName)
	if err != nil {
		return err
	}
	if *dropProb > 0 && *useTCP {
		return fmt.Errorf("-drop applies to the in-memory network; omit -tcp")
	}
	d := deployment{
		n: *n, rounds: *rounds, roundTimeout: *roundTimeout, detector: -1,
		transport: transportName(*useTCP), codec: codec.Name(),
	}
	// -drop injects its losses through the same seeded chaos layer as the
	// drills, below the reliable delivery layer that masks them.
	var chaosCfg *cluster.ChaosConfig
	drills := *crashRound > 0 || *chaosDelay > 0 || *partition != ""
	if drills || *dropProb > 0 {
		chaosCfg = &cluster.ChaosConfig{Seed: *seed, Delay: *chaosDelay, DropProb: *dropProb}
		if *crashRound > 0 {
			if *crashID < 0 || *crashID >= *n {
				return fmt.Errorf("crash-worker %d out of range [0, %d)", *crashID, *n)
			}
			chaosCfg.Crashes = []cluster.ChaosCrash{{Node: *crashID, Round: *crashRound}}
		}
		if *partition != "" {
			p, err := parsePartition(*partition, nodes)
			if err != nil {
				return err
			}
			chaosCfg.Partitions = []cluster.ChaosPartition{p}
			d.detector = p.To
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var reg *metrics.Registry
	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
		metrics.RegisterProcessGauges(reg)
		srv, err := metrics.StartServer(*metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		fmt.Fprintf(out, "metrics: http://%s/metrics\n", srv.Addr())
		defer func() {
			if testHookScrape != nil {
				testHookScrape(srv.Addr())
			}
			shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer shutCancel()
			if err := srv.Shutdown(shutCtx); err != nil {
				fmt.Fprintln(os.Stderr, "dolbie-cluster: metrics shutdown:", err)
			}
		}()
	}
	var chaos *cluster.Chaos
	if chaosCfg != nil {
		chaosCfg.Metrics = reg
		chaos = cluster.NewChaos(*chaosCfg)
		if drills {
			d.chaos = chaos
		}
	}
	transports, cleanup, err := buildTransports(nodes, *dropProb > 0, *useTCP, codec, chaos, reg)
	if err != nil {
		return err
	}
	defer cleanup()
	d.transports = transports

	d.sources = make([]cluster.CostSource, *n)
	for i := range d.sources {
		src, err := cluster.NewSyntheticSource(i, *seed)
		if err != nil {
			return err
		}
		d.sources[i] = src
	}
	d.x0 = simplex.Uniform(*n)
	d.opts = []core.Option{core.WithInitialAlpha(*alpha)}
	if reg != nil {
		d.opts = append(d.opts, core.WithMetrics(reg))
	}
	if *mode == "mw" {
		return d.runMasterWorker(ctx, out)
	}
	return d.runFullyDistributed(ctx, out)
}

// parsePartition decodes "from:to:firstRound:lastRound" over node ids in
// [0, nodes).
func parsePartition(spec string, nodes int) (cluster.ChaosPartition, error) {
	var p cluster.ChaosPartition
	if _, err := fmt.Sscanf(spec, "%d:%d:%d:%d", &p.From, &p.To, &p.FromRound, &p.ToRound); err != nil {
		return p, fmt.Errorf("bad -chaos-partition %q (want from:to:firstRound:lastRound): %w", spec, err)
	}
	if p.From < 0 || p.From >= nodes || p.To < 0 || p.To >= nodes || p.From == p.To {
		return p, fmt.Errorf("bad -chaos-partition %q: nodes must be distinct ids in [0, %d)", spec, nodes)
	}
	if p.FromRound < 1 || p.ToRound < p.FromRound {
		return p, fmt.Errorf("bad -chaos-partition %q: need 1 <= firstRound <= lastRound", spec)
	}
	return p, nil
}

// deployment gathers what both architectures need to run and report.
type deployment struct {
	n, rounds    int
	roundTimeout time.Duration
	// detector is the cut link's destination under a partition (-1
	// without one). In fd mode it is the genuine detector — the only
	// peer actually missing frames; everyone else merely stalls behind
	// it one round later. Symmetric deadlines then race (every peer's
	// timer was reset by the same last broadcast) and the wrong peer can
	// win detection, splitting the deployment. Staggering settles the
	// race: the detector keeps the configured deadline, the rest get a
	// generous multiple, so its eviction notice lands before any other
	// timer fires. Longer deadlines on the non-detectors cost nothing in
	// healthy rounds.
	detector   int
	transports []cluster.Transport
	sources    []cluster.CostSource
	x0         []float64
	opts       []core.Option
	chaos      *cluster.Chaos
	transport  string
	codec      string
}

// runMasterWorker runs Algorithm 1. With a round timeout the master
// detects crashed workers by deadline, removes them, folds their
// workload back into the balancing loop and finishes with the
// survivors; a worker's own exit is then reported, not fatal. Algorithm
// 1 tells no worker it was evicted, so each worker runs on a context of
// its own, which is canceled once the master has finished without it: a
// live worker cut off by a partition would otherwise wait for its next
// coordinate until the deployment's deadline.
func (d deployment) runMasterWorker(ctx context.Context, out io.Writer) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	workers := make([]cluster.WorkerResult, d.n)
	workerErrs := make([]error, d.n)
	stopWorker := make([]context.CancelFunc, d.n)
	for i := 0; i < d.n; i++ {
		var wctx context.Context
		wctx, stopWorker[i] = context.WithCancel(ctx)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workers[i], workerErrs[i] = cluster.RunWorker(wctx, d.transports[i], i, d.n, d.x0[i], d.rounds, d.sources[i], d.opts...)
			if workerErrs[i] != nil && d.roundTimeout == 0 {
				cancel()
			}
		}(i)
	}
	start := time.Now()
	res, err := cluster.RunMaster(ctx, d.transports[d.n], d.x0, d.rounds, cluster.MasterConfig{RoundTimeout: d.roundTimeout}, d.opts...)
	elapsed := time.Since(start)
	if err != nil {
		cancel()
		wg.Wait()
		return errors.Join(append([]error{err}, workerErrs...)...)
	}
	for _, id := range res.Crashed {
		stopWorker[id]()
	}
	wg.Wait()

	fmt.Fprintf(out, "master-worker deployment: %d workers, %d rounds, %v (%s transport, %s codec)\n",
		d.n, res.Rounds, elapsed.Round(time.Millisecond), d.transport, d.codec)
	fmt.Fprintf(out, "final step size alpha_T = %.6f\n", res.FinalAlpha)
	fmt.Fprintf(out, "master traffic: sent %d msgs / %d B, received %d msgs / %d B\n",
		res.Traffic.MsgsSent, res.Traffic.BytesSent, res.Traffic.MsgsReceived, res.Traffic.BytesRecv)
	d.printChaos(out)
	if d.roundTimeout > 0 {
		if len(res.Crashed) > 0 {
			fmt.Fprintf(out, "crashed workers (detected and removed): %v\n", res.Crashed)
		} else {
			fmt.Fprintln(out, "no crashes detected")
		}
		fmt.Fprintf(out, "survivors: %v (trajectory rows in this order)\n", res.Survivors)
	}
	var played, costs [][]float64
	for i, werr := range workerErrs {
		if werr != nil {
			fmt.Fprintf(out, "worker %d exited: %v\n", i, werr)
			continue
		}
		played = append(played, workers[i].Played)
		costs = append(costs, workers[i].Costs)
	}
	printTrajectory(out, played, costs)
	return nil
}

// runFullyDistributed runs Algorithm 2. With a round timeout every peer
// imposes the collection deadline on its neighbours, evicts silent ones,
// announces the eviction to the whole deployment, and the survivors
// renormalize the workload simplex.
func (d deployment) runFullyDistributed(ctx context.Context, out io.Writer) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
		res  = make([]cluster.ElasticPeerResult, d.n)
	)
	for i := 0; i < d.n; i++ {
		ec := cluster.ElasticPeerConfig{RoundTimeout: d.roundTimeout}
		if d.detector >= 0 && i != d.detector {
			ec.RoundTimeout *= 3
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := cluster.RunElasticPeer(ctx, d.transports[i], i, d.x0, d.rounds, d.sources[i], ec, d.opts...)
			mu.Lock()
			defer mu.Unlock()
			res[i] = r
			if err != nil {
				errs = append(errs, fmt.Errorf("peer %d: %w", i, err))
				cancel()
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if len(errs) > 0 {
		return errors.Join(errs...)
	}

	var msgs, bytes int
	for _, pr := range res {
		msgs += pr.Traffic.MsgsSent
		bytes += pr.Traffic.BytesSent
	}
	fmt.Fprintf(out, "fully-distributed deployment: %d peers, %d rounds, %v (%s transport, %s codec)\n",
		d.n, d.rounds, elapsed.Round(time.Millisecond), d.transport, d.codec)
	fmt.Fprintf(out, "total traffic: %d msgs / %d B (%.1f msgs/round, O(N^2) by design)\n",
		msgs, bytes, float64(msgs)/float64(d.rounds))
	d.printChaos(out)
	evicted := map[int]bool{}
	for _, pr := range res {
		switch {
		case pr.Crashed:
			fmt.Fprintf(out, "peer %d crashed after %d rounds\n", pr.ID, pr.Rounds)
		case pr.SelfEvicted:
			fmt.Fprintf(out, "peer %d was declared crashed by its peers and stopped after %d rounds\n", pr.ID, pr.Rounds)
		}
		for _, v := range pr.Evicted {
			if !evicted[v] {
				evicted[v] = true
				fmt.Fprintf(out, "peer %d evicted in round %d (first detected by peer %d)\n", v, pr.EvictionRound[v], pr.ID)
			}
		}
	}
	var played, costs [][]float64
	var survivors []int
	for _, pr := range res {
		if pr.Rounds == d.rounds {
			played = append(played, pr.Played)
			costs = append(costs, pr.Costs)
			survivors = append(survivors, pr.ID)
		}
	}
	if d.roundTimeout > 0 {
		if len(evicted) == 0 {
			fmt.Fprintln(out, "no evictions")
		}
		fmt.Fprintf(out, "survivors: %v (trajectory rows in this order)\n", survivors)
	}
	printTrajectory(out, played, costs)
	return nil
}

// printChaos reports the faults the chaos layer injected, if a crash,
// delay or partition drill is configured.
func (d deployment) printChaos(out io.Writer) {
	if d.chaos == nil {
		return
	}
	stats := d.chaos.Stats()
	fmt.Fprintf(out, "chaos faults injected: %d crashes, %d partition drops\n", stats.Crashes, stats.PartitionDrops)
}

func transportName(tcp bool) string {
	if tcp {
		return "tcp"
	}
	return "memnet"
}

// buildTransports returns count node transports: TCP sockets on
// localhost or in-memory nodes, wrapped by the chaos layer when one is
// configured and then, when lossy, by the reliable delivery layer. A
// non-nil registry instruments the reliability layer's
// retransmission/duplicate counters.
func buildTransports(count int, lossy, useTCP bool, codec wire.Codec, chaos *cluster.Chaos, reg *metrics.Registry) ([]cluster.Transport, func(), error) {
	transports := make([]cluster.Transport, count)
	if useTCP {
		nodes := make([]*cluster.TCPNode, count)
		registry := make(map[int]string, count)
		for i := 0; i < count; i++ {
			node, err := cluster.ListenTCP(i, "127.0.0.1:0", cluster.WithTCPCodec(codec))
			if err != nil {
				for _, n := range nodes[:i] {
					n.Close() //nolint:errcheck // best-effort unwind
				}
				return nil, nil, err
			}
			nodes[i] = node
			registry[i] = node.Addr()
		}
		for i, node := range nodes {
			node.SetRegistry(registry)
			transports[i] = node
		}
	} else {
		net := cluster.NewMemNet(cluster.WithCodec(codec))
		for i := range transports {
			transports[i] = net.Node(i)
		}
	}
	for i := range transports {
		if chaos != nil {
			transports[i] = chaos.Wrap(i, transports[i])
		}
		if lossy {
			transports[i] = cluster.NewReliableWithMetrics(i, transports[i], 10*time.Millisecond, reg)
		}
	}
	cleanup := func() {
		for _, tr := range transports {
			tr.Close() //nolint:errcheck // best-effort teardown
		}
	}
	return transports, cleanup, nil
}

// printTrajectory summarizes how the deployment balanced load: the global
// cost of the first and last rounds, and each worker's first/last share.
func printTrajectory(out io.Writer, played, costs [][]float64) {
	if len(played) == 0 || len(played[0]) == 0 {
		return
	}
	rounds := len(played[0])
	first, last := 0.0, 0.0
	for i := range costs {
		if costs[i][0] > first {
			first = costs[i][0]
		}
		if costs[i][rounds-1] > last {
			last = costs[i][rounds-1]
		}
	}
	fmt.Fprintf(out, "global cost: round 1 = %.4f, round %d = %.4f (%.1f%% reduction)\n",
		first, rounds, last, 100*(first-last)/first)
	fmt.Fprintln(out, "worker  first-share  last-share")
	for i := range played {
		fmt.Fprintf(out, "%6d  %11.4f  %10.4f\n", i, played[i][0], played[i][rounds-1])
	}
}
