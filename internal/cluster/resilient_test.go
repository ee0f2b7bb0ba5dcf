package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/metrics"
	"dolbie/internal/simplex"
	"dolbie/internal/wire"
)

// runResilientDeployment wires a fail-stop master (alpha_1 pinned at
// 0.05) to n plain workers, where worker crashWorker dies at round
// crashRound (0 disables).
func runResilientDeployment(t *testing.T, n, rounds, crashWorker, crashRound int, mc MasterConfig) (MasterResult, []WorkerResult, []error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	net := NewMemNet()
	transports := make([]Transport, n+1)
	for i := range transports {
		transports[i] = net.Node(i)
	}
	x0 := simplex.Uniform(n)

	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		workerRes  = make([]WorkerResult, n)
		workerErrs = make([]error, n)
		masterRes  MasterResult
		masterErr  error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		masterRes, masterErr = RunMaster(ctx, transports[n], x0, rounds, mc, core.WithInitialAlpha(0.05))
	}()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var src CostSource = instSource(i)
			if i == crashWorker && crashRound > 0 {
				src = crashingSource{inner: src, crashAt: crashRound}
			}
			res, err := RunWorker(ctx, transports[i], i, n, x0[i], rounds, src)
			mu.Lock()
			workerRes[i] = res
			workerErrs[i] = err
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if masterErr != nil {
		t.Fatalf("fail-stop master: %v", masterErr)
	}
	return masterRes, workerRes, workerErrs
}

func TestResilientMasterNoFailures(t *testing.T) {
	const n, rounds = 5, 12
	mc := MasterConfig{RoundTimeout: 2 * time.Second}
	res, workers, errs := runResilientDeployment(t, n, rounds, -1, 0, mc)
	if res.Rounds != rounds {
		t.Errorf("rounds = %d, want %d", res.Rounds, rounds)
	}
	if len(res.Crashed) != 0 {
		t.Errorf("crashed = %v, want none", res.Crashed)
	}
	if len(res.Survivors) != n {
		t.Errorf("survivors = %v, want all %d", res.Survivors, n)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	// Healthy runs balance: the last played assignment is feasible.
	last := make([]float64, n)
	for i, wr := range workers {
		last[i] = wr.Played[rounds-1]
	}
	if err := simplex.Check(last, 1e-7); err != nil {
		t.Error(err)
	}
}

func TestResilientMasterSurvivesWorkerCrash(t *testing.T) {
	const n, rounds, crashWorker, crashRound = 5, 12, 2, 4
	mc := MasterConfig{RoundTimeout: 300 * time.Millisecond}
	res, workers, errs := runResilientDeployment(t, n, rounds, crashWorker, crashRound, mc)

	if res.Rounds != rounds {
		t.Errorf("rounds = %d, want %d despite the crash", res.Rounds, rounds)
	}
	if len(res.Crashed) != 1 || res.Crashed[0] != crashWorker {
		t.Errorf("crashed = %v, want [%d]", res.Crashed, crashWorker)
	}
	if len(res.Survivors) != n-1 {
		t.Errorf("survivors = %v, want %d workers", res.Survivors, n-1)
	}
	for _, id := range res.Survivors {
		if id == crashWorker {
			t.Errorf("crashed worker %d listed as survivor", crashWorker)
		}
	}
	if errs[crashWorker] == nil {
		t.Error("crashed worker should report its error")
	}
	// Survivors complete every round and their final assignment covers
	// the full workload again (the crashed share was reabsorbed).
	var total float64
	for i, wr := range workers {
		if i == crashWorker {
			continue
		}
		if errs[i] != nil {
			t.Fatalf("survivor %d: %v", i, errs[i])
		}
		if len(wr.Played) != rounds {
			t.Fatalf("survivor %d played %d rounds, want %d", i, len(wr.Played), rounds)
		}
		total += wr.Played[rounds-1]
	}
	if total < 1-1e-6 || total > 1+1e-6 {
		t.Errorf("survivors' final shares sum to %v, want 1", total)
	}
}

// replayTransport feeds the master frames it must drop: a queue of
// injected frames before any real one, and a second copy of the first
// cost report it receives.
type replayTransport struct {
	Transport
	queue      []Envelope
	duplicated bool
}

func (r *replayTransport) Recv(ctx context.Context) (Envelope, int, error) {
	if len(r.queue) > 0 {
		env := r.queue[0]
		r.queue = r.queue[1:]
		return env, 0, nil
	}
	env, size, err := r.Transport.Recv(ctx)
	if _, cost := env.Msg.(core.CostReport); err == nil && cost && !r.duplicated {
		r.duplicated = true
		r.queue = append(r.queue, env)
	}
	return env, size, err
}

// TestMasterDropsRejectedFrames hands the master a decision for a later
// round, a frame of a kind it does not handle and a duplicate cost
// report: it drops each, and every worker finishes with the Played and
// Costs of an undisturbed run.
func TestMasterDropsRejectedFrames(t *testing.T) {
	const n, rounds = 4, 8
	run := func(master func(Transport) Transport) []WorkerResult {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		ts := memTransports(NewMemNet(), n+1)
		ts[n] = master(ts[n])
		srcs := make([]CostSource, n)
		for i := range srcs {
			srcs[i] = instSource(i)
		}
		_, workers, err := MasterWorkerDeployment(ctx, ts, simplex.Uniform(n), rounds, srcs, core.WithInitialAlpha(0.05))
		if err != nil {
			t.Fatal(err)
		}
		return workers
	}
	want := run(func(tr Transport) Transport { return tr })
	got := run(func(tr Transport) Transport {
		return &replayTransport{Transport: tr, queue: []Envelope{
			wire.NewEnvelope(1, n, core.DecisionReport{Round: 3, From: 1, Next: 0.5}),
			wire.NewEnvelope(1, n, core.PeerShare{Round: 1, From: 1, Cost: 1, LocalAlpha: 0.5}),
		}}
	})
	for i := range want {
		if !reflect.DeepEqual(got[i].Played, want[i].Played) || !reflect.DeepEqual(got[i].Costs, want[i].Costs) {
			t.Fatalf("worker %d diverged from the undisturbed run:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestResilientMasterAbortsWithNoWorkers(t *testing.T) {
	// No worker ever starts: the first deadline evicts all three, and the
	// master aborts instead of running rounds over an empty set.
	const n, rounds = 3, 20
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	net := NewMemNet()
	mc := MasterConfig{RoundTimeout: 50 * time.Millisecond}
	res, err := RunMaster(ctx, net.Node(n), simplex.Uniform(n), rounds, mc, core.WithInitialAlpha(0.05))
	if !errors.Is(err, ErrTooFewWorkers) {
		t.Errorf("err = %v, want ErrTooFewWorkers", err)
	}
	if len(res.Crashed) != n || len(res.Survivors) != 0 {
		t.Errorf("crashed %v, survivors %v: want all %d workers crashed", res.Crashed, res.Survivors, n)
	}
}

// TestResilientMasterStopsWhenItsOwnTransportCrashes crashes the
// master's own chaos transport at round 3 under a deadline. A send that
// fails because the master itself is gone ends the run with that error:
// no worker is declared crashed, all four survive, and the crash counter
// stays at zero.
func TestResilientMasterStopsWhenItsOwnTransportCrashes(t *testing.T) {
	const n, rounds = 4, 10
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	net := NewMemNet()
	chaos := NewChaos(ChaosConfig{Crashes: []ChaosCrash{{Node: MasterID(n), Round: 3}}})
	transports := make([]Transport, n+1)
	for i := range transports {
		transports[i] = chaos.Wrap(i, net.Node(i))
	}
	x0 := simplex.Uniform(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = RunWorker(ctx, transports[i], i, n, x0[i], rounds, instSource(i)) //nolint:errcheck // canceled below
		}(i)
	}
	reg := metrics.NewRegistry()
	mc := MasterConfig{RoundTimeout: 200 * time.Millisecond}
	res, err := RunMaster(ctx, transports[n], x0, rounds, mc, core.WithInitialAlpha(0.05), core.WithMetrics(reg))
	cancel()
	wg.Wait()
	if !errors.Is(err, ErrChaosCrashed) {
		t.Errorf("err = %v, want ErrChaosCrashed", err)
	}
	if len(res.Crashed) != 0 || fmt.Sprint(res.Survivors) != "[0 1 2 3]" {
		t.Errorf("crashed %v, survivors %v: want no worker crashed and all four surviving", res.Crashed, res.Survivors)
	}
	if got := reg.Counter(MetricWorkersCrashed, "").Value(); got != 0 {
		t.Errorf("%s = %v, want 0", MetricWorkersCrashed, got)
	}
}

func TestResilientMasterValidation(t *testing.T) {
	net := NewMemNet()
	tr := net.Node(0)
	ctx := context.Background()
	x0 := simplex.Uniform(3)
	if _, err := RunMaster(ctx, tr, x0, 0, MasterConfig{RoundTimeout: time.Second}); err == nil {
		t.Error("zero rounds should error")
	}
	if _, err := RunMaster(ctx, tr, []float64{0.4, 0.4}, 5, MasterConfig{RoundTimeout: time.Second}); err == nil {
		t.Error("infeasible x0 should error")
	}
	if _, err := RunMaster(ctx, tr, x0, 5, MasterConfig{RoundTimeout: -time.Second}); err == nil {
		t.Error("negative RoundTimeout should error")
	}
}

func TestResilientMasterMultipleCrashes(t *testing.T) {
	// Two workers crash at different rounds; the run still completes.
	const n, rounds = 6, 14
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	net := NewMemNet()
	transports := make([]Transport, n+1)
	for i := range transports {
		transports[i] = net.Node(i)
	}
	x0 := simplex.Uniform(n)
	mc := MasterConfig{RoundTimeout: 300 * time.Millisecond}

	crashAt := map[int]int{1: 3, 4: 7}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var src CostSource = instSource(i)
			if at, ok := crashAt[i]; ok {
				src = crashingSource{inner: src, crashAt: at}
			}
			_, _ = RunWorker(ctx, transports[i], i, n, x0[i], rounds, src) //nolint:errcheck
		}(i)
	}
	res, err := RunMaster(ctx, transports[n], x0, rounds, mc, core.WithInitialAlpha(0.05))
	if err != nil {
		t.Fatalf("fail-stop master: %v", err)
	}
	wg.Wait()
	if res.Rounds != rounds {
		t.Errorf("rounds = %d, want %d", res.Rounds, rounds)
	}
	if len(res.Crashed) != len(crashAt) {
		t.Errorf("crashed = %v, want workers %v", res.Crashed, crashAt)
	}
	if len(res.Survivors) != n-len(crashAt) {
		t.Errorf("survivors = %v", res.Survivors)
	}
	if fmt.Sprint(res.Survivors) != "[0 2 3 5]" {
		t.Errorf("survivors = %v, want [0 2 3 5]", res.Survivors)
	}
}
