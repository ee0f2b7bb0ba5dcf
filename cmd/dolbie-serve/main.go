// Command dolbie-serve runs the request-serving data plane: a seeded
// open-loop traffic generator feeds the weighted dispatcher, workers
// drain bounded FIFO queues at simulated time-varying speeds, and —
// under the default dolbie policy — every round's observed per-worker
// drain latency is fed back to the DOLBIE balancer, whose retuned
// assignment becomes the next round's routing weights.
//
// The default mode is a deterministic virtual-time simulation: the same
// seed always produces the same run, byte for byte. -compare runs the
// identical traffic realization under the three headline control
// policies (dolbie, uniform wrr, jsq) and prints them side by side;
// -policy dgd selects the distributed-gradient-descent baseline for a
// single run; -json emits machine-readable results. Alerting and
// tuning guidance for the exported metric families lives in
// docs/OPERATIONS.md: §3 (control plane), §6 (serving data plane,
// queue sizing), §8 (geo-distributed serving).
//
// With -http-addr the command instead serves a live wall-clock data
// plane: POST /ingest admits requests (200 routed, 429 shed/throttled,
// 503 blocked or draining, refusals carrying a Retry-After backoff
// hint), constant-speed workers — the same catalog means the simulation
// would run, scaled by -rate/-demand/-util — drain the queues in real
// time, /admin/* hot-reloads shed policy, queue caps, and routing
// weights and drives graceful drains, and /metrics exposes the
// dolbie_dispatch_* and dolbie_dispatch_live_* families. Interrupting
// the process drains gracefully: in-flight requests complete while new
// arrivals get backpressure, then the listener shuts down.
//
// Examples:
//
//	dolbie-serve -n 8 -rounds 240
//	dolbie-serve -compare -json
//	dolbie-serve -policy jsq -shed spill -cap 32
//	dolbie-serve -tenants 3 -objective l2
//	dolbie-serve -http-addr :8080
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"dolbie"
	"dolbie/internal/metrics"
)

// testHookServe, when non-nil, replaces the blocking wait of the live
// HTTP mode: it is called with the bound address and the mode returns
// when it does. The command test uses it to drive the live endpoints.
var testHookServe func(addr string)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dolbie-serve:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dolbie-serve", flag.ContinueOnError)
	def := dolbie.DefaultServeConfig()
	var (
		shedPolicy    dolbie.ShedPolicy
		controlPolicy dolbie.ControlPolicy
		objective     dolbie.Objective
	)
	fs.TextVar(&shedPolicy, "shed", def.Shed, "backpressure policy: reject, block, or spill (tuning guidance: docs/OPERATIONS.md §6)")
	fs.TextVar(&controlPolicy, "policy", def.Policy, "control policy: dolbie, wrr, jsq, or dgd")
	fs.TextVar(&objective, "objective", dolbie.ObjectiveMinMax(), "balancing objective: minmax or l<p> (e.g. l2)")
	var (
		n        = fs.Int("n", def.N, "number of workers")
		rounds   = fs.Int("rounds", def.Rounds, "control rounds to simulate")
		roundDur = fs.Float64("round-dur", def.RoundDur, "round length in virtual seconds")
		rate     = fs.Float64("rate", def.ArrivalRate, "open-loop arrival rate in requests per virtual second")
		demand   = fs.Float64("demand", def.DemandMean, "mean service demand per request in work units")
		util     = fs.Float64("util", def.Utilization, "target mean utilization (worker speeds are scaled to it)")
		capacity = fs.Int("cap", def.QueueCap, "per-worker queue capacity (sizing guidance: docs/OPERATIONS.md §6)")
		shards   = fs.Int("shards", def.Shards, "admission shards (0 = 1; split the dispatcher lock for concurrent ingest)")
		batch    = fs.Int("batch", def.BatchSize, "simulation only: admission batch width, requests admitted per shard critical section (0 or 1 = per-request; tuning guidance: docs/OPERATIONS.md §6)")
		alpha    = fs.Float64("alpha", def.Alpha1, "DOLBIE initial step size")
		seed     = fs.Int64("seed", def.Seed, "seed for traffic and worker speed processes")
		tenants  = fs.Int("tenants", 0, "tenant count: 0 runs the anonymous single stream; t > 0 runs t equal-weight tenants cycling gold/silver/bronze")
		compare  = fs.Bool("compare", false, "run the same traffic under all three control policies")
		jsonOut  = fs.Bool("json", false, "emit results as JSON")
		metrics_ = fs.String("metrics-addr", "", "simulation mode: serve /metrics during the run (empty disables)")
		httpAddr = fs.String("http-addr", "", "live mode: serve POST /ingest and /metrics on this address instead of simulating")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The -objective flag applies to every tenant; a non-minmax
	// objective with -tenants 0 promotes the run to one explicit tenant,
	// since objectives are a per-tenant knob.
	if *tenants < 0 {
		return fmt.Errorf("-tenants %d must be non-negative", *tenants)
	}
	nTenants := *tenants
	if nTenants == 0 && !objective.IsMinMax() {
		nTenants = 1
	}
	var tenantCfgs []dolbie.TenantConfig
	if nTenants > 0 {
		tenantCfgs = dolbie.DefaultTenants(nTenants)
		for i := range tenantCfgs {
			tenantCfgs[i].Objective = objective
			tenantCfgs[i].Shed = shedPolicy
		}
	}

	cfg := dolbie.ServeConfig{
		N:           *n,
		Rounds:      *rounds,
		RoundDur:    *roundDur,
		ArrivalRate: *rate,
		DemandMean:  *demand,
		Utilization: *util,
		QueueCap:    *capacity,
		Shards:      *shards,
		BatchSize:   *batch,
		Shed:        shedPolicy,
		Policy:      controlPolicy,
		Alpha1:      *alpha,
		Seed:        *seed,
		Tenants:     tenantCfgs,
	}

	if *httpAddr != "" {
		if *batch > 1 {
			// Live ingest admits each POST through Submit, one request per
			// critical section, so a batch width would change nothing but
			// lift the ShedBlock restriction batching carries.
			return fmt.Errorf("-batch %d is simulation only: live mode (-http-addr) admits one request per POST", *batch)
		}
		return runLive(out, cfg, *httpAddr)
	}

	if *metrics_ != "" {
		reg := metrics.NewRegistry()
		cfg.Metrics = reg
		srv, err := metrics.StartServer(*metrics_, reg)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		fmt.Fprintf(out, "metrics: http://%s/metrics\n", srv.Addr())
		defer func() {
			shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(shutCtx); err != nil {
				fmt.Fprintln(os.Stderr, "dolbie-serve: metrics shutdown:", err)
			}
		}()
	}

	if *compare {
		results, err := dolbie.ServeComparison(cfg)
		if err != nil {
			return err
		}
		if *jsonOut {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			return enc.Encode(results)
		}
		printHeader(out)
		for _, r := range results {
			printRow(out, r)
		}
		for _, r := range results {
			printTenants(out, r)
		}
		return nil
	}

	res, err := dolbie.Serve(cfg)
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Fprintf(out, "serve: %d workers, %d rounds, policy %s, shed %s, seed %d\n",
		res.N, res.Rounds, res.Policy, res.Shed, res.Seed)
	printHeader(out)
	printRow(out, res)
	printTenants(out, res)
	return nil
}

func printHeader(out io.Writer) {
	fmt.Fprintf(out, "%-8s %12s %12s %12s %10s %10s %12s\n",
		"policy", "p99max(s)", "meanmax(s)", "reqP99(s)", "shed", "completed", "bytes/round")
}

func printRow(out io.Writer, r *dolbie.ServeResult) {
	fmt.Fprintf(out, "%-8s %12.4f %12.4f %12.4f %9.2f%% %10d %12.0f\n",
		r.Policy, r.MaxWorkerLatencyP99, r.MaxWorkerLatencyMean, r.RequestLatencyP99,
		100*r.ShedRate, r.Completed, r.BytesPerRound)
}

// printTenants renders the per-tenant breakdown of a multi-tenant run;
// single-stream results carry no tenant slice and print nothing.
func printTenants(out io.Writer, r *dolbie.ServeResult) {
	if len(r.Tenants) == 0 {
		return
	}
	fmt.Fprintf(out, "tenants (%s):\n", r.Policy)
	fmt.Fprintf(out, "  %-10s %-7s %-8s %10s %10s %10s %10s %9s %12s\n",
		"tenant", "class", "obj", "arrivals", "completed", "shed", "throttled", "shed%", "reqP99(s)")
	for _, ts := range r.Tenants {
		fmt.Fprintf(out, "  %-10s %-7s %-8s %10d %10d %10d %10d %8.2f%% %12.4f\n",
			ts.Name, ts.Priority, ts.Objective, ts.Arrivals, ts.Completed,
			ts.ShedCount, ts.Throttled, 100*ts.ShedRate, ts.RequestLatencyP99)
	}
}

// runLive serves a real wall-clock data plane over HTTP: POST /ingest
// admits requests with monotone wall-clock arrival timestamps (the
// "tenant" query parameter selects the submitting tenant by index) and
// wakes the constant-speed workers draining the queues, /admin/*
// hot-reloads shed policy, queue caps, and routing weights and drives
// graceful drains, and /metrics exposes the dolbie_dispatch_* and
// dolbie_dispatch_live_* families. It blocks until interrupted (or
// until the test hook returns), then drains gracefully: admissions are
// gated with 503 + Retry-After, in-flight requests complete (bounded by
// a 10s timeout), and only then does the listener shut down.
func runLive(out io.Writer, cfg dolbie.ServeConfig, addr string) error {
	reg := metrics.NewRegistry()
	metrics.RegisterProcessGauges(reg)
	d, err := dolbie.NewDispatcher(dolbie.DispatcherConfig{
		N:         cfg.N,
		QueueCap:  cfg.QueueCap,
		Shards:    cfg.Shards,
		BatchSize: cfg.BatchSize,
		Shed:      cfg.Shed,
		Tenants:   cfg.Tenants,
		Metrics:   reg,
	})
	if err != nil {
		return err
	}
	speeds, err := dolbie.LiveWorkerSpeeds(cfg)
	if err != nil {
		return err
	}
	lv, err := dolbie.NewLive(dolbie.LiveConfig{Dispatcher: d, Speeds: speeds, Metrics: reg})
	if err != nil {
		return err
	}
	mux := metrics.NewMux(reg)
	mux.Handle("/ingest", lv.Handler())
	mux.Handle("/admin/", lv.AdminHandler())
	srv, err := metrics.StartServerMux(addr, mux)
	if err != nil {
		lv.Close()
		return err
	}
	fmt.Fprintf(out, "ingest: POST http://%s/ingest  admin: http://%s/admin/status  metrics: http://%s/metrics\n",
		srv.Addr(), srv.Addr(), srv.Addr())
	shutdown := func() {
		lv.BeginDrain()
		if !lv.WaitIdle(10 * time.Second) {
			fmt.Fprintln(os.Stderr, "dolbie-serve: drain timed out; abandoning queued requests")
		}
		lv.Close()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "dolbie-serve: shutdown:", err)
		}
	}
	if testHookServe != nil {
		testHookServe(srv.Addr())
		shutdown()
		return nil
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Fprintln(out, "interrupted; draining")
	shutdown()
	return nil
}
