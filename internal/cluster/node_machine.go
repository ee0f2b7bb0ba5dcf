package cluster

import (
	"errors"
	"fmt"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/metrics"
	"dolbie/internal/wire"
)

// masterMachine is Algorithm 1's master as a machine (loop.go):
// core.MasterState plus the fail-stop rules. Under a RoundTimeout a worker
// that misses a collection deadline, or whose link fails a send, is
// evicted; without one a failed send ends the run. The deadline restarts
// when an input moves the protocol or expires, never on a dropped frame.
type masterMachine struct {
	loopState
	st      *core.MasterState
	self    int // MasterID: the workers are 0..self-1
	last    int // the deployment's final round
	timeout time.Duration
	res     MasterResult

	timeouts, crashes *metrics.Counter
}

func newMasterMachine(x0 []float64, rounds int, mc MasterConfig, opts []core.Option) (*masterMachine, error) {
	if err := checkRun(rounds, mc.RoundTimeout); err != nil {
		return nil, err
	}
	st, err := core.NewMaster(x0, opts...)
	if err != nil {
		return nil, err
	}
	m := &masterMachine{st: st, self: MasterID(len(x0)), last: rounds, timeout: mc.RoundTimeout}
	if reg := core.RegistryFrom(opts...); reg != nil && mc.RoundTimeout > 0 {
		m.timeouts = reg.Counter(MetricRoundTimeouts, "Collection phases that hit their deadline.")
		m.crashes = reg.Counter(MetricWorkersCrashed, "Workers declared crashed by the master.")
	}
	return m, nil
}

func (m *masterMachine) start() { m.wait = m.timeout }

// handle applies one report. A frame of another kind, or a report the
// state machine refused on arrival, is dropped and is no progress.
func (m *masterMachine) handle(env Envelope) {
	var outs []core.MasterOutput
	var err error
	switch msg := env.Msg.(type) {
	case core.CostReport:
		outs, err = m.st.HandleCost(msg)
	case core.DecisionReport:
		outs, err = m.st.HandleDecision(msg)
	}
	if err != nil && !errors.Is(err, core.ErrRejected) {
		m.finish(fmt.Errorf("cluster: master: %w", err))
	} else if len(outs) > 0 {
		m.queue(outs)
		m.wait = m.timeout
	}
}

// tick declares every worker the phase still waits on crashed.
func (m *masterMachine) tick() {
	missing := m.st.Missing()
	if m.timeouts != nil && len(missing) > 0 {
		m.timeouts.Inc()
	}
	for _, id := range missing {
		m.evict(id)
	}
	m.wait = m.timeout
}

// evict declares worker id crashed and queues what its removal unlocks;
// with no worker left the run ends.
func (m *masterMachine) evict(id int) {
	if !m.st.Alive(id) {
		return
	}
	m.res.Crashed = append(m.res.Crashed, id)
	if m.crashes != nil {
		m.crashes.Inc()
	}
	outs, err := m.st.Evict(id)
	switch {
	case err != nil:
		m.finish(err)
	case m.st.AliveCount() == 0:
		m.finish(ErrTooFewWorkers)
	}
	m.queue(outs)
}

// sendFailed evicts a worker whose link failed a send under a deadline,
// before any later send; without one the failure ends the run.
func (m *masterMachine) sendFailed(s outSend, err error) {
	if m.timeout == 0 {
		m.finish(fmt.Errorf("cluster: master %s to %d: %w", s.env.Kind(), s.to, err))
		return
	}
	m.evict(s.to)
}

func (m *masterMachine) stop(err error, _ bool) {
	m.finish(fmt.Errorf("cluster: master round %d: %w", m.st.Round(), err))
}

// queue turns core outputs into sends: a coordinate, boxed once, to
// every worker, an assignment to its straggler.
func (m *masterMachine) queue(outs []core.MasterOutput) {
	for _, o := range outs {
		if o.Coordinate == nil {
			m.send(o.Assign.To, wire.NewEnvelope(m.self, o.Assign.To, *o.Assign), evictNow)
			continue
		}
		msg := any(*o.Coordinate)
		for i := 0; i < m.self; i++ {
			m.send(i, wire.NewEnvelope(m.self, i, msg), evictNow)
		}
	}
}

// next returns the next queued send to a live worker, none once the run
// has failed; the run is complete once the last round's outputs are out.
func (m *masterMachine) next() (outSend, bool) {
	for m.err == nil && m.out.len() > 0 {
		if s := m.out.pop(); m.st.Alive(s.to) {
			return s, true
		}
	}
	if m.st.Round() > m.last {
		m.finish(nil)
	}
	return outSend{}, false
}

func (m *masterMachine) result() MasterResult {
	m.res.Rounds = min(m.st.Round()-1, m.last)
	m.res.FinalAlpha = m.st.Alpha()
	m.res.Survivors = m.st.Survivors()
	return m.res
}

// workerMachine is worker id of Algorithm 1 as a machine. It arms no
// deadline (the master detects failures), and a failed send or an
// unexpected frame ends its run.
type workerMachine struct {
	loopState
	w          *core.WorkerState
	id, master int
	last       int // the deployment's final round
	round      int // the round being executed; w.Round() moves past it once the round is done
	src        CostSource
	res        WorkerResult
}

func newWorkerMachine(id, n int, x0 float64, rounds int, src CostSource, opts []core.Option) (*workerMachine, error) {
	if err := checkRun(rounds, 0, src); err != nil {
		return nil, err
	}
	w, err := core.NewWorker(id, n, x0, opts...)
	if err != nil {
		return nil, err
	}
	res := WorkerResult{ID: id, Played: make([]float64, 0, rounds), Costs: make([]float64, 0, rounds)}
	return &workerMachine{w: w, id: id, master: MasterID(n), last: rounds, src: src, res: res}, nil
}

// start plays round 1; next plays each later round once the last one's
// sends are out, so Observe never delays a decision.
func (m *workerMachine) start() { m.play() }

// play runs the top of the next round: play, observe and report the cost
// (Algorithm 1, lines 1-4).
func (m *workerMachine) play() {
	m.round = m.w.Round()
	x := m.w.Play()
	cost, f, err := m.src.Observe(m.round, x)
	if err != nil {
		m.finish(fmt.Errorf("cluster: worker %d observe round %d: %w", m.id, m.round, err))
		return
	}
	rep, err := m.w.Observe(cost, f)
	if err != nil {
		m.finish(err)
		return
	}
	m.send(m.master, wire.NewEnvelope(m.id, m.master, rep), mustSend)
	m.res.Played = append(m.res.Played, x)
	m.res.Costs = append(m.res.Costs, cost)
}

// handle applies the coordinate, answering it with the decision, or the
// straggler's assignment.
func (m *workerMachine) handle(env Envelope) {
	var err error
	switch msg := env.Msg.(type) {
	case core.Coordinate:
		var dec *core.DecisionReport
		if dec, err = m.w.HandleCoordinate(msg); dec != nil {
			m.send(m.master, wire.NewEnvelope(m.id, m.master, *dec), mustSend)
		}
	case core.StragglerAssign:
		err = m.w.HandleAssign(msg)
	default:
		err = fmt.Errorf("received unexpected %s", env.Kind())
	}
	if err != nil {
		m.finish(fmt.Errorf("cluster: worker %d: %w", m.id, err))
	}
}

func (m *workerMachine) tick() {}

func (m *workerMachine) sendFailed(s outSend, err error) {
	m.finish(fmt.Errorf("cluster: worker %d %s: %w", m.id, s.env.Kind(), err))
}

func (m *workerMachine) stop(err error, _ bool) {
	m.finish(fmt.Errorf("cluster: worker %d recv round %d: %w", m.id, m.round, err))
}

func (m *workerMachine) next() (outSend, bool) {
	for {
		switch {
		case m.out.len() > 0:
			return m.out.pop(), true
		case m.finished || m.w.Round() == m.round:
			return outSend{}, false
		case m.round == m.last:
			m.finish(nil)
		default:
			m.play()
		}
	}
}
