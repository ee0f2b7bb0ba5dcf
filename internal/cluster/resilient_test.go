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

// simResilient runs a fail-stop master (alpha_1 pinned at 0.05) and n
// workers on the runner under seed, worker i fail-stopping at round
// crashAt[i], and fails the test if the master fails.
func simResilient(t *testing.T, seed int64, n, rounds int, crashAt map[int]int, mc MasterConfig) (MasterResult, []*workerMachine) {
	t.Helper()
	master, workers := simMasterWorker(t, seed, ChaosConfig{}, simplex.Uniform(n), rounds, mc, crashingSources(n, crashAt), []core.Option{core.WithInitialAlpha(0.05)}, nil)
	if master.err != nil {
		t.Fatalf("seed %d: fail-stop master: %v", seed, master.err)
	}
	return master.result(), workers
}

func TestResilientMasterNoFailures(t *testing.T) {
	const n, rounds = 5, 12
	mc := MasterConfig{RoundTimeout: 2 * time.Second}
	for seed := int64(0); seed < simSeeds; seed++ {
		res, workers := simResilient(t, seed, n, rounds, nil, mc)
		if res.Rounds != rounds || len(res.Crashed) != 0 || len(res.Survivors) != n {
			t.Fatalf("seed %d: %d rounds, crashed %v, survivors %v; want %d rounds, no crash, all %d surviving", seed, res.Rounds, res.Crashed, res.Survivors, rounds, n)
		}
		// Healthy runs balance: the last played assignment is feasible.
		last := make([]float64, n)
		for i, w := range workers {
			if w.err != nil {
				t.Fatalf("seed %d: worker %d: %v", seed, i, w.err)
			}
			last[i] = w.res.Played[rounds-1]
		}
		if err := simplex.Check(last, 1e-7); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestResilientMasterSurvivesWorkerCrash(t *testing.T) {
	const n, rounds, crashWorker, crashRound = 5, 12, 2, 4
	mc := MasterConfig{RoundTimeout: 300 * time.Millisecond}
	for seed := int64(0); seed < simSeeds; seed++ {
		res, workers := simResilient(t, seed, n, rounds, map[int]int{crashWorker: crashRound}, mc)
		if res.Rounds != rounds || fmt.Sprint(res.Crashed) != "[2]" || fmt.Sprint(res.Survivors) != "[0 1 3 4]" {
			t.Fatalf("seed %d: %d rounds, crashed %v, survivors %v; want %d rounds despite the crash, [2] crashed, [0 1 3 4] surviving", seed, res.Rounds, res.Crashed, res.Survivors, rounds)
		}
		if workers[crashWorker].err == nil {
			t.Fatalf("seed %d: crashed worker should report its error", seed)
		}
		// Survivors complete every round and their final assignment covers
		// the full workload again (the crashed share was reabsorbed).
		var total float64
		for _, i := range res.Survivors {
			w := workers[i]
			if w.err != nil || len(w.res.Played) != rounds {
				t.Fatalf("seed %d: survivor %d played %d rounds (err %v), want %d", seed, i, len(w.res.Played), w.err, rounds)
			}
			total += w.res.Played[rounds-1]
		}
		if total < 1-1e-6 || total > 1+1e-6 {
			t.Fatalf("seed %d: survivors' final shares sum to %v, want 1", seed, total)
		}
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
	mc := MasterConfig{RoundTimeout: 50 * time.Millisecond}
	for seed := int64(0); seed < simSeeds; seed++ {
		s := newSimNet(t, seed, ChaosConfig{}, n+1)
		m, err := newMasterMachine(simplex.Uniform(n), rounds, mc, []core.Option{core.WithInitialAlpha(0.05)})
		if err != nil {
			t.Fatal(err)
		}
		s.add(n, m)
		s.run(nil)
		res := m.result()
		if !errors.Is(m.err, ErrTooFewWorkers) || len(res.Crashed) != n || len(res.Survivors) != 0 {
			t.Fatalf("seed %d: err %v, crashed %v, survivors %v: want ErrTooFewWorkers with all %d workers crashed", seed, m.err, res.Crashed, res.Survivors, n)
		}
	}
}

// TestResilientMasterStopsWhenItsOwnTransportCrashes crashes the
// master's own transport at round 3 under a deadline. A send that fails
// because the master itself is gone ends the run with that error: no
// worker is declared crashed, all four survive, and the crash counter
// stays at zero.
func TestResilientMasterStopsWhenItsOwnTransportCrashes(t *testing.T) {
	const n, rounds = 4, 10
	cfg := ChaosConfig{Crashes: []ChaosCrash{{Node: MasterID(n), Round: 3}}}
	mc := MasterConfig{RoundTimeout: 200 * time.Millisecond}
	for seed := int64(0); seed < simSeeds; seed++ {
		reg := metrics.NewRegistry()
		m, _ := simMasterWorker(t, seed, cfg, simplex.Uniform(n), rounds, mc, crashingSources(n, nil), []core.Option{core.WithInitialAlpha(0.05), core.WithMetrics(reg)}, nil)
		res := m.result()
		if !errors.Is(m.err, ErrChaosCrashed) || len(res.Crashed) != 0 || fmt.Sprint(res.Survivors) != "[0 1 2 3]" {
			t.Fatalf("seed %d: err %v, crashed %v, survivors %v: want ErrChaosCrashed, no worker crashed and all four surviving", seed, m.err, res.Crashed, res.Survivors)
		}
		if got := reg.Counter(MetricWorkersCrashed, "").Value(); got != 0 {
			t.Fatalf("seed %d: %s = %v, want 0", seed, MetricWorkersCrashed, got)
		}
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
	mc := MasterConfig{RoundTimeout: 300 * time.Millisecond}
	for seed := int64(0); seed < simSeeds; seed++ {
		res, _ := simResilient(t, seed, n, rounds, map[int]int{1: 3, 4: 7}, mc)
		if res.Rounds != rounds || fmt.Sprint(res.Crashed) != "[1 4]" || fmt.Sprint(res.Survivors) != "[0 2 3 5]" {
			t.Fatalf("seed %d: %d rounds, crashed %v, survivors %v; want %d rounds, [1 4] crashed, [0 2 3 5] surviving", seed, res.Rounds, res.Crashed, res.Survivors, rounds)
		}
	}
}

// slowSendTransport delays every send: a master whose broadcast takes
// longer than its RoundTimeout.
type slowSendTransport struct {
	Transport
	delay time.Duration
}

func (s slowSendTransport) Send(ctx context.Context, to int, env Envelope) (int, error) {
	time.Sleep(s.delay)
	return s.Transport.Send(ctx, to, env)
}

// TestMasterSlowSendIsNotTimedOut pins where the master's collection
// deadline starts, on real timers: once its own sends are out. Each of
// the master's sends takes 40 ms, so its coordinate broadcast to four
// workers takes 160 ms, longer than the 100 ms RoundTimeout, and no
// worker may be evicted. A deadline armed before the broadcast would
// have expired by its end, and MemNet's Recv returns an expired
// context's error before a ready message.
func TestMasterSlowSendIsNotTimedOut(t *testing.T) {
	const n, rounds = 4, 2
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ts := memTransports(NewMemNet(), n+1)
	x0 := simplex.Uniform(n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunWorker(ctx, ts[i], i, n, x0[i], rounds, instSource(i))
		}(i)
	}
	mc := MasterConfig{RoundTimeout: 100 * time.Millisecond}
	res, err := RunMaster(ctx, slowSendTransport{Transport: ts[n], delay: 40 * time.Millisecond}, x0, rounds, mc)
	if err != nil || res.Rounds != rounds || len(res.Crashed) != 0 {
		cancel() // evicted workers wait for a coordinate that never comes
		wg.Wait()
		t.Fatalf("master: %d rounds, crashed %v, err %v; want %d rounds and no eviction", res.Rounds, res.Crashed, err, rounds)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
}

// TestMasterFailedSend pins the master's rule for a send that fails to
// a live worker (here a node that is not registered). Under a deadline
// the worker is evicted, and no later send goes to it: worker 1's
// coordinate fails, the rest of the broadcast goes out, and after
// worker 0's decision the assignment and round 2's coordinate skip
// worker 1. Without a deadline the failure ends the run with that
// error, and nothing more is sent.
func TestMasterFailedSend(t *testing.T) {
	for _, c := range []struct {
		timeout time.Duration
		want    []string
	}{
		{time.Second, []string{"coordinate>0", "coordinate>1", "coordinate>2", "assign>2", "coordinate>0", "coordinate>2"}},
		{0, []string{"coordinate>0", "coordinate>1"}},
	} {
		m, err := newMasterMachine(simplex.Uniform(3), 3, MasterConfig{RoundTimeout: c.timeout}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		send := func(to int, env Envelope) error {
			got = append(got, fmt.Sprintf("%s>%d", env.Kind(), to))
			if to == 1 {
				return fmt.Errorf("%w: %d", ErrUnknownNode, to)
			}
			return nil
		}
		deliver := func(envs ...Envelope) {
			for _, env := range envs {
				m.handle(env)
				flush(context.Background(), m, send, time.Now)
			}
		}
		m.start()
		deliver( // worker 2 is the straggler
			wire.NewEnvelope(0, 3, core.CostReport{Round: 1, From: 0, Cost: 1}),
			wire.NewEnvelope(1, 3, core.CostReport{Round: 1, From: 1, Cost: 2}),
			wire.NewEnvelope(2, 3, core.CostReport{Round: 1, From: 2, Cost: 3}),
		)
		if c.timeout > 0 {
			deliver(
				wire.NewEnvelope(0, 3, core.DecisionReport{Round: 1, From: 0, Next: 0.3}),
				wire.NewEnvelope(0, 3, core.CostReport{Round: 2, From: 0, Cost: 1}),
				wire.NewEnvelope(2, 3, core.CostReport{Round: 2, From: 2, Cost: 1}),
			)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("timeout %v: sends %v, want %v", c.timeout, got, c.want)
		}
		switch res := m.result(); {
		case c.timeout > 0 && (m.err != nil || !reflect.DeepEqual(res.Crashed, []int{1}) || !reflect.DeepEqual(res.Survivors, []int{0, 2})):
			t.Errorf("timeout %v: err %v, crashed %v, survivors %v; want worker 1 evicted", c.timeout, m.err, res.Crashed, res.Survivors)
		case c.timeout == 0 && (!errors.Is(m.err, ErrUnknownNode) || len(res.Crashed) != 0):
			t.Errorf("no timeout: err %v, crashed %v; want the send error and no eviction", m.err, res.Crashed)
		}
	}
}
