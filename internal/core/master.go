package core

import (
	"fmt"

	"dolbie/internal/simplex"
)

// MasterState is the master's half of Algorithm 1 (DOLBIE, master-worker
// version) as a pure, transport-agnostic state machine. Feed it incoming
// CostReport and DecisionReport messages; it emits the Coordinate
// broadcasts and StragglerAssign messages the master must send.
//
// A non-straggling worker starts round t+1 as soon as it has sent its
// round-t decision, so its next cost report can reach the master before
// round t completes; the state machine buffers it. Links are FIFO and
// exactly once, so a correct worker never reports more than one round
// ahead, never sends a decision before that round's coordinate, and
// never reports twice in a round: all three are rejected on arrival,
// which bounds the buffer at one entry per worker.
//
// The paper assumes a fixed, reliable worker set; the state machine
// additionally supports the runtime's fail-stop extension through
// Evict, with the same meaning as PeerState.Evict: the straggler pick,
// the remainder and the rule-(7) cap then run over live workers only,
// and reports from evicted workers are dropped. It is not safe for
// concurrent use; a master node owns exactly one.
type MasterState struct {
	n          int
	round      int // round currently being coordinated (1-based)
	alpha      float64
	capScale   float64
	alive      []bool
	aliveCount int

	collected int
	costs     []float64
	costSeen  []bool

	decided   int
	decisions []float64
	decSeen   []bool
	straggler int
	inDecide  bool // false: collecting costs; true: collecting decisions

	// nextCosts buffers cost reports for round+1, one slot per worker.
	nextCosts []float64
	nextSeen  []bool

	rec *Recorder
}

// MasterOutput is one message the master must transmit: exactly one of
// the fields is non-nil. Coordinate is a broadcast to all workers;
// Assign goes to the worker Assign.To.
type MasterOutput struct {
	Coordinate *Coordinate
	Assign     *StragglerAssign
}

// NewMaster constructs the master for an N-worker deployment initialized
// at partition x0. Options follow NewBalancer; a pinned initial alpha is
// capped at the feasibility rule evaluated at min_i x0_i, which is the
// invariant that keeps every subsequent round feasible (see Section IV-B
// of the paper and the discussion in balancer.go).
func NewMaster(x0 []float64, opts ...Option) (*MasterState, error) {
	if err := simplex.Check(x0, 0); err != nil {
		return nil, fmt.Errorf("core: master initial partition: %w", err)
	}
	var o balancerOptions
	for _, opt := range opts {
		opt(&o)
	}
	n := len(x0)
	alpha := InitialAlphaScaled(x0, o.capScale)
	if o.initialAlpha > 0 && o.initialAlpha < alpha {
		alpha = o.initialAlpha
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	return &MasterState{
		n:          n,
		round:      1,
		alpha:      alpha,
		capScale:   o.capScale,
		alive:      alive,
		aliveCount: n,
		costs:      make([]float64, n),
		costSeen:   make([]bool, n),
		decisions:  make([]float64, n),
		decSeen:    make([]bool, n),
		nextCosts:  make([]float64, n),
		nextSeen:   make([]bool, n),
		rec:        NewRecorder(o.metrics),
	}, nil
}

// Round returns the round the master is currently coordinating.
func (m *MasterState) Round() int { return m.round }

// Alpha returns the current step size alpha_t.
func (m *MasterState) Alpha() float64 { return m.alpha }

// Alive reports whether worker id is still part of the deployment
// (out-of-range ids are dead).
func (m *MasterState) Alive(id int) bool {
	return id >= 0 && id < m.n && m.alive[id]
}

// AliveCount returns the current number of live workers.
func (m *MasterState) AliveCount() int { return m.aliveCount }

// Survivors lists the live worker ids in ascending order.
func (m *MasterState) Survivors() []int {
	out := make([]int, 0, m.aliveCount)
	for i, ok := range m.alive {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// Missing lists the live workers whose report the master is currently
// waiting for: unseen costs while collecting costs, unseen non-straggler
// decisions while collecting decisions. A fail-stop driver evicts
// exactly this set when a collection deadline expires.
func (m *MasterState) Missing() []int {
	var out []int
	for i, ok := range m.alive {
		switch {
		case !ok:
		case !m.inDecide && !m.costSeen[i]:
			out = append(out, i)
		case m.inDecide && i != m.straggler && !m.decSeen[i]:
			out = append(out, i)
		}
	}
	return out
}

// Evict removes worker id from the deployment (fail-stop: it never
// returns). The call is idempotent; evicting an unknown worker is an
// error. A report already counted from the evicted worker in the current
// phase is retracted, so its frozen workload share is absorbed by the
// straggler's remainder. If the eviction unblocks the current phase, the
// returned outputs carry the unlocked messages, exactly as if the final
// report had arrived. Evicting the straggler mid-decision ends the round
// without an assignment once the live workers' decisions are in.
func (m *MasterState) Evict(id int) ([]MasterOutput, error) {
	if id < 0 || id >= m.n {
		return nil, fmt.Errorf("core: evict unknown worker %d", id)
	}
	if !m.alive[id] {
		return nil, nil
	}
	m.alive[id] = false
	m.aliveCount--
	m.nextSeen[id] = false
	if !m.inDecide {
		if m.costSeen[id] {
			m.costSeen[id] = false
			m.collected--
		}
		if m.collected == m.aliveCount && m.aliveCount > 0 {
			return m.completeCosts()
		}
		return nil, nil
	}
	if m.decSeen[id] {
		m.decSeen[id] = false
		m.decided--
	}
	if m.decided == m.liveDeciders() {
		return m.completeDecisions()
	}
	return nil, nil
}

// liveDeciders is the number of decisions that complete the round: one
// per live non-straggler.
func (m *MasterState) liveDeciders() int {
	if m.alive[m.straggler] {
		return m.aliveCount - 1
	}
	return m.aliveCount
}

// HandleCost ingests a worker's CostReport. When the report completes the
// current round's cost collection, the returned outputs contain the
// Coordinate broadcast (and possibly further outputs unlocked by buffered
// messages). Reports from evicted workers are dropped.
func (m *MasterState) HandleCost(r CostReport) ([]MasterOutput, error) {
	if r.From < 0 || r.From >= m.n {
		return nil, fmt.Errorf("core: cost report from unknown worker %d", r.From)
	}
	if !m.alive[r.From] {
		return nil, nil
	}
	switch {
	case r.Round < m.round:
		return nil, fmt.Errorf("core: stale cost report for round %d (master at round %d)", r.Round, m.round)
	case r.Round > m.round+1:
		return nil, fmt.Errorf("core: cost report for round %d more than one round ahead of round %d", r.Round, m.round)
	case r.Round == m.round+1:
		if m.nextSeen[r.From] {
			return nil, fmt.Errorf("core: duplicate cost report from worker %d in round %d", r.From, r.Round)
		}
		m.nextSeen[r.From] = true
		m.nextCosts[r.From] = r.Cost
		return nil, nil
	case m.inDecide:
		return nil, fmt.Errorf("core: duplicate cost report from worker %d in round %d", r.From, m.round)
	}
	return m.acceptCost(r.From, r.Cost)
}

func (m *MasterState) acceptCost(from int, cost float64) ([]MasterOutput, error) {
	if m.costSeen[from] {
		return nil, fmt.Errorf("core: duplicate cost report from worker %d in round %d", from, m.round)
	}
	m.costSeen[from] = true
	m.costs[from] = cost
	m.rec.RecordWorkerCost(from, cost)
	m.collected++
	if m.collected < m.aliveCount {
		return nil, nil
	}
	return m.completeCosts()
}

// completeCosts identifies the straggler among the live workers (lowest
// index on ties; Algorithm 1, lines 9-12) and broadcasts the coordinate.
func (m *MasterState) completeCosts() ([]MasterOutput, error) {
	m.straggler = -1
	for i, ok := range m.alive {
		if ok && (m.straggler == -1 || m.costs[i] > m.costs[m.straggler]) {
			m.straggler = i
		}
	}
	m.inDecide = true
	m.decided = 0
	for i := range m.decSeen {
		m.decSeen[i] = false
	}
	out := []MasterOutput{{Coordinate: &Coordinate{
		Round:      m.round,
		GlobalCost: m.costs[m.straggler],
		Alpha:      m.alpha,
		Straggler:  m.straggler,
	}}}
	if m.aliveCount > 1 {
		return out, nil
	}
	// Degenerate single-worker deployment: there are no non-straggler
	// decisions to wait for; the lone worker keeps the whole load.
	out = append(out, MasterOutput{Assign: &StragglerAssign{Round: m.round, To: m.straggler, Next: 1}})
	m.rec.RecordRound(m.straggler, m.costs[m.straggler], m.alpha)
	more, err := m.nextRound()
	return append(out, more...), err
}

// HandleDecision ingests a non-straggler's DecisionReport. When it
// completes the round, the outputs contain the StragglerAssign message
// (and possibly further outputs unlocked by buffered cost reports).
// Decisions from evicted workers are dropped.
func (m *MasterState) HandleDecision(r DecisionReport) ([]MasterOutput, error) {
	if r.From < 0 || r.From >= m.n {
		return nil, fmt.Errorf("core: decision report from unknown worker %d", r.From)
	}
	if !m.alive[r.From] {
		return nil, nil
	}
	switch {
	case r.Round < m.round:
		return nil, fmt.Errorf("core: stale decision report for round %d (master at round %d)", r.Round, m.round)
	case r.Round > m.round || !m.inDecide:
		return nil, fmt.Errorf("core: decision report for round %d before its coordinate (master at round %d)", r.Round, m.round)
	case r.From == m.straggler:
		return nil, fmt.Errorf("core: straggler %d must not send a decision in round %d", r.From, m.round)
	case m.decSeen[r.From]:
		return nil, fmt.Errorf("core: duplicate decision from worker %d in round %d", r.From, m.round)
	}
	m.decSeen[r.From] = true
	m.decisions[r.From] = r.Next
	m.decided++
	if m.decided < m.liveDeciders() {
		return nil, nil
	}
	return m.completeDecisions()
}

// completeDecisions computes the straggler's remainder over the live
// non-stragglers' decisions (Algorithm 1, line 14) and shrinks the step
// size (line 16) with the rule-(7) cap evaluated over the live count. An
// evicted straggler gets no assignment: its share is absorbed by the
// next round's remainder.
func (m *MasterState) completeDecisions() ([]MasterOutput, error) {
	if !m.alive[m.straggler] {
		return m.nextRound()
	}
	// Sum in worker-id order so the remainder does not depend on
	// arrival order.
	var taken float64
	for i, seen := range m.decSeen {
		if seen {
			taken += m.decisions[i]
		}
	}
	xs := 1 - taken
	if xs < 0 { // floating-point dust; feasibility is guaranteed by the alpha invariant
		xs = 0
	}
	if xs > drainEps { // a fully drained straggler degenerates the cap; see balancer.go
		if c := AlphaCapScaled(xs, m.aliveCount, m.capScale); c < m.alpha {
			m.alpha = c
		}
	}
	out := []MasterOutput{{Assign: &StragglerAssign{
		Round: m.round,
		To:    m.straggler,
		Next:  xs,
	}}}
	m.rec.RecordRound(m.straggler, m.costs[m.straggler], m.alpha)
	more, err := m.nextRound()
	return append(out, more...), err
}

// nextRound advances to the next round and replays the cost reports
// buffered for it.
func (m *MasterState) nextRound() ([]MasterOutput, error) {
	m.round++
	m.inDecide = false
	m.collected = 0
	for i := range m.costSeen {
		m.costSeen[i] = false
	}
	var out []MasterOutput
	for i, seen := range m.nextSeen {
		if !seen {
			continue
		}
		m.nextSeen[i] = false
		more, err := m.acceptCost(i, m.nextCosts[i])
		if err != nil {
			return nil, err
		}
		out = append(out, more...)
	}
	return out, nil
}
