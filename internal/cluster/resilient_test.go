package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/simplex"
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

func TestResilientMasterAbortsBelowMinWorkers(t *testing.T) {
	const n, rounds = 3, 20
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	net := NewMemNet()
	transports := make([]Transport, n+1)
	for i := range transports {
		transports[i] = net.Node(i)
	}
	x0 := simplex.Uniform(n)
	mc := MasterConfig{RoundTimeout: 150 * time.Millisecond, MinWorkers: 3}

	var wg sync.WaitGroup
	// Only workers 0 and 1 run; worker 2 never starts (instant "crash").
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The run ends early when the master aborts; ignore errors.
			_, _ = RunWorker(ctx, transports[i], i, n, x0[i], rounds, instSource(i)) //nolint:errcheck
		}(i)
	}
	_, err := RunMaster(ctx, transports[n], x0, rounds, mc, core.WithInitialAlpha(0.05))
	cancel() // release the surviving workers
	wg.Wait()
	if !errors.Is(err, ErrTooFewWorkers) {
		t.Errorf("err = %v, want ErrTooFewWorkers", err)
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
