package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/costfn"
)

// CostSource provides a node's local cost feedback: after playing
// workload x in a round, the realized cost l = f(x) and the revealed
// local cost function f become observable. Implementations stand in for
// the node actually executing its workload (training a batch, running an
// offloaded task).
type CostSource interface {
	Observe(round int, x float64) (cost float64, f costfn.Func, err error)
}

// FuncSource adapts a plain function to a CostSource.
type FuncSource func(round int, x float64) (float64, costfn.Func, error)

// Observe implements CostSource.
func (fs FuncSource) Observe(round int, x float64) (float64, costfn.Func, error) {
	return fs(round, x)
}

// MasterID returns the node id conventionally used by the master in an
// n-worker deployment (the workers occupy ids 0..n-1).
func MasterID(n int) int { return n }

// MasterConfig parameterizes RunMaster's fail-stop handling.
type MasterConfig struct {
	// RoundTimeout bounds each collection phase (cost reports, decision
	// reports): workers that miss it are declared crashed and evicted,
	// and their frozen workload folds into the straggler's remainder.
	// Zero waits forever, as the paper's reliable worker set allows.
	RoundTimeout time.Duration
}

// MasterResult summarizes a completed master run.
type MasterResult struct {
	// Rounds is the number of completed rounds.
	Rounds int
	// Crashed lists the workers declared crashed, in detection order.
	Crashed []int
	// Survivors is the final live worker set.
	Survivors []int
	// FinalAlpha is the step size after the last round.
	FinalAlpha float64
	// Traffic counts the master's protocol messages and bytes.
	Traffic TrafficStats
}

// ErrTooFewWorkers is returned when every worker has been declared
// crashed.
var ErrTooFewWorkers = errors.New("cluster: too few live workers")

// RunMaster executes the master side of Algorithm 1 for the given number
// of rounds over the transport, driving core.MasterState, then returns.
// With a positive mc.RoundTimeout it also handles fail-stop crashes: a
// worker that misses a collection deadline, or whose link fails a send,
// is evicted, and the straggler pick, the remainder and the rule-(7) cap
// continue over the survivors. A send that fails because the master's
// own transport is gone (closed, or crashed by Chaos) ends the run with
// that error instead, evicting no one. The caller owns the transport
// (it is not closed). Cancel the context to abort a wedged deployment;
// the error wraps the context error. Like every driver, the master sends
// and receives on a child of ctx that no other node shares.
func RunMaster(ctx context.Context, tr Transport, x0 []float64, rounds int, mc MasterConfig, opts ...core.Option) (MasterResult, error) {
	m, err := newMasterMachine(x0, rounds, mc, opts)
	if err != nil {
		return MasterResult{}, err
	}
	meter := NewInstrumentedMeter(tr, core.RegistryFrom(opts...), "master")
	drive(ctx, meter, m, nil)
	res := m.result()
	res.Traffic = meter.Stats()
	return res, m.err
}

// WorkerResult summarizes a completed worker run.
type WorkerResult struct {
	// ID is the worker's index.
	ID int
	// Played[t] is the workload fraction executed in round t+1.
	Played []float64
	// Costs[t] is the realized local cost of round t+1.
	Costs []float64
	// Traffic counts the worker's protocol messages and bytes.
	Traffic TrafficStats
}

// RunWorker executes worker id of an n-worker Algorithm 1 deployment for
// the given number of rounds. src supplies the local cost feedback after
// each played round. The worker sends and receives on a child of ctx
// that no other node shares.
func RunWorker(ctx context.Context, tr Transport, id, n int, x0 float64, rounds int, src CostSource, opts ...core.Option) (WorkerResult, error) {
	m, err := newWorkerMachine(id, n, x0, rounds, src, opts)
	if err != nil {
		return WorkerResult{}, err
	}
	meter := NewInstrumentedMeter(tr, core.RegistryFrom(opts...), fmt.Sprintf("worker-%d", id))
	drive(ctx, meter, m, nil)
	if m.err != nil {
		return WorkerResult{}, m.err
	}
	m.res.Traffic = meter.Stats()
	return m.res, nil
}
