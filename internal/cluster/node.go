package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/costfn"
	"dolbie/internal/metrics"
	"dolbie/internal/wire"
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
	if rounds <= 0 {
		return MasterResult{}, errors.New("cluster: rounds must be positive")
	}
	if mc.RoundTimeout < 0 {
		return MasterResult{}, errors.New("cluster: RoundTimeout must not be negative")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	reg := core.RegistryFrom(opts...)
	meter := NewInstrumentedMeter(tr, reg, "master")
	m, err := core.NewMaster(x0, opts...)
	if err != nil {
		return MasterResult{}, err
	}
	var timeouts, crashCount *metrics.Counter
	if reg != nil && mc.RoundTimeout > 0 {
		timeouts = reg.Counter(MetricRoundTimeouts, "Collection phases that hit their deadline.")
		crashCount = reg.Counter(MetricWorkersCrashed, "Workers declared crashed by the master.")
	}
	n := len(x0)
	self := MasterID(n)
	var res MasterResult
	finish := func(err error) (MasterResult, error) {
		res.Rounds = min(m.Round()-1, rounds)
		res.FinalAlpha = m.Alpha()
		res.Survivors = m.Survivors()
		res.Traffic = meter.Stats()
		return res, err
	}
	// evict declares a worker crashed and returns what its removal
	// unlocks.
	evict := func(id int) ([]core.MasterOutput, error) {
		if !m.Alive(id) {
			return nil, nil
		}
		res.Crashed = append(res.Crashed, id)
		if crashCount != nil {
			crashCount.Inc()
		}
		return m.Evict(id)
	}
	// send transmits one message; under fail-stop handling a failed send
	// to a live worker is itself a crash signal, unless the master's own
	// context or transport is gone.
	send := func(to int, env Envelope) ([]core.MasterOutput, error) {
		if _, err := meter.Send(ctx, to, env); err != nil {
			if mc.RoundTimeout == 0 || nodeGone(ctx, err) {
				return nil, fmt.Errorf("cluster: master %s to %d: %w", env.Kind(), to, err)
			}
			return evict(to)
		}
		return nil, nil
	}
	// dispatch transmits the state machine's outputs, including any that
	// evictions unlock along the way.
	dispatch := func(outs []core.MasterOutput) error {
		if m.AliveCount() == 0 {
			return ErrTooFewWorkers
		}
		for len(outs) > 0 {
			o := outs[0]
			outs = outs[1:]
			var more []core.MasterOutput
			switch {
			case o.Coordinate != nil:
				for i := 0; i < n; i++ {
					if !m.Alive(i) {
						continue
					}
					unlocked, err := send(i, wire.NewEnvelope(self, i, *o.Coordinate))
					if err != nil {
						return err
					}
					more = append(more, unlocked...)
				}
			case o.Assign != nil && m.Alive(o.Assign.To):
				unlocked, err := send(o.Assign.To, wire.NewEnvelope(self, o.Assign.To, *o.Assign))
				if err != nil {
					return err
				}
				more = unlocked
			}
			outs = append(outs, more...)
		}
		return nil
	}

	var deadline time.Time
	phaseStart := func() {
		if mc.RoundTimeout > 0 {
			deadline = time.Now().Add(mc.RoundTimeout)
		}
	}
	phaseStart()
	for m.Round() <= rounds {
		recvCtx, cancel := ctx, context.CancelFunc(nil)
		if mc.RoundTimeout > 0 {
			recvCtx, cancel = context.WithDeadline(ctx, deadline)
		}
		env, _, err := meter.Recv(recvCtx)
		if cancel != nil {
			cancel()
		}
		var (
			outs    []core.MasterOutput
			handled error
		)
		expired := err != nil && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded)
		switch {
		case expired:
			// Deadline: every worker the phase still waits on is crashed.
			missing := m.Missing()
			if timeouts != nil && len(missing) > 0 {
				timeouts.Inc()
			}
			for _, id := range missing {
				more, err := evict(id)
				if err != nil {
					return finish(err)
				}
				outs = append(outs, more...)
			}
		case err != nil:
			return finish(fmt.Errorf("cluster: master recv (round %d): %w", m.Round(), err))
		}
		switch msg := env.Msg.(type) { // env is empty after an expiry
		case core.CostReport:
			outs, handled = m.HandleCost(msg)
		case core.DecisionReport:
			outs, handled = m.HandleDecision(msg)
		}
		// A frame of another kind, or a report the state machine refused
		// on arrival, is dropped and does not count as progress.
		if handled != nil && !errors.Is(handled, core.ErrRejected) {
			return finish(fmt.Errorf("cluster: master: %w", handled))
		}
		if err := dispatch(outs); err != nil {
			return finish(err)
		}
		if len(outs) > 0 || expired {
			phaseStart()
		}
	}
	return finish(nil)
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
	if rounds <= 0 {
		return WorkerResult{}, errors.New("cluster: rounds must be positive")
	}
	if src == nil {
		return WorkerResult{}, errors.New("cluster: nil cost source")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	meter := NewInstrumentedMeter(tr, core.RegistryFrom(opts...), fmt.Sprintf("worker-%d", id))
	w, err := core.NewWorker(id, n, x0, opts...)
	if err != nil {
		return WorkerResult{}, err
	}
	res := WorkerResult{
		ID:     id,
		Played: make([]float64, 0, rounds),
		Costs:  make([]float64, 0, rounds),
	}
	master := MasterID(n)
	for r := 1; r <= rounds; r++ {
		x := w.Play()
		cost, f, err := src.Observe(r, x)
		if err != nil {
			return WorkerResult{}, fmt.Errorf("cluster: worker %d observe round %d: %w", id, r, err)
		}
		rep, err := w.Observe(cost, f)
		if err != nil {
			return WorkerResult{}, err
		}
		if _, err := meter.Send(ctx, master, wire.NewEnvelope(rep.From, master, rep)); err != nil {
			return WorkerResult{}, fmt.Errorf("cluster: worker %d cost report: %w", id, err)
		}
		res.Played = append(res.Played, x)
		res.Costs = append(res.Costs, cost)

		// Await the coordinate (and, as the straggler, the assignment).
		roundDone := false
		for !roundDone {
			env, _, err := meter.Recv(ctx)
			if err != nil {
				return WorkerResult{}, fmt.Errorf("cluster: worker %d recv round %d: %w", id, r, err)
			}
			switch msg := env.Msg.(type) {
			case core.Coordinate:
				dec, err := w.HandleCoordinate(msg)
				if err != nil {
					return WorkerResult{}, fmt.Errorf("cluster: worker %d: %w", id, err)
				}
				if dec != nil {
					if _, err := meter.Send(ctx, master, wire.NewEnvelope(dec.From, master, *dec)); err != nil {
						return WorkerResult{}, fmt.Errorf("cluster: worker %d decision: %w", id, err)
					}
					roundDone = true
				}
			case core.StragglerAssign:
				if err := w.HandleAssign(msg); err != nil {
					return WorkerResult{}, fmt.Errorf("cluster: worker %d: %w", id, err)
				}
				roundDone = true
			default:
				return WorkerResult{}, fmt.Errorf("cluster: worker %d received unexpected %s", id, env.Kind())
			}
		}
	}
	res.Traffic = meter.Stats()
	return res, nil
}
