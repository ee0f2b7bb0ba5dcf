package cluster

import (
	"errors"
	"fmt"

	"dolbie/internal/core"
	"dolbie/internal/metrics"
	"dolbie/internal/wire"
)

// elasticMachine is one Algorithm 2 peer as a machine (loop.go): every
// protocol decision and no I/O.
//
// next expands queued core outputs and runs queued evictions and
// aggregate drains one step at a time, so a failed send is fed back
// before any later decision: the rest of the output that failed goes
// out first, then the eviction notices, then later outputs, and a
// failed tree hop is acted on before any later send — the order of a
// driver that sends as it decides.
type elasticMachine struct {
	loopState
	cfg      ElasticPeerConfig
	schedule map[int]int // earliest admission round per joiner id; only the coordinator reads it
	id       int
	last     int // the deployment's final round
	src      CostSource
	opts     []core.Option
	contact  int // the member a joiner asks for admission

	p       *core.PeerState // nil while a joiner awaits its grant; the one membership record
	version uint64          // the roster version (logChange)
	res     ElasticPeerResult

	survivors []int // p.Survivors(), refreshed on every membership change

	round     int  // the round being executed
	roundDone bool // the round's Done output has been dispatched

	outs     fifo[core.PeerOutput] // core outputs awaiting dispatch
	evicting fifo[int]             // peers to evict, with notices
	redrain  bool                  // re-evaluate buffered aggregates

	strikes int // consecutive deadline expiries without accepted progress

	// tree-mode round state (tree is nil in flat mode)
	tree        *aggTree
	ownShare    core.PeerShare
	sharePhase  bool // between Observe and consensus application
	aggRound    int  // round the tree state was initialized for
	treeAgg     core.PeerAggregate
	treeWaiting map[int]bool
	treeSentUp  bool
	pendingAggs []core.PeerAggregate // early aggregates, see bufferAgg

	// membership state
	pendingAdmissions []core.RosterUpdate
	backlog           []Envelope // traffic from announced-but-unadmitted joiners
	joinQueue         []core.JoinRequest
	announced         map[int]bool

	timeouts  *metrics.Counter
	evictions *metrics.Counter
	joins     *metrics.Counter
	gSize     *metrics.Gauge
	gVersion  *metrics.Gauge
	gDepth    *metrics.Gauge
}

// sendPolicy says what a failed send means to the machine.
type sendPolicy uint8

const (
	bestEffort sendPolicy = iota // notices, forwards, announcements: a dead receiver is caught by deadline
	evictAfter                   // shares, decisions: evict the receiver once the rest of the output is out
	evictNow                     // tree hops, the master's sends: evict the receiver before any later send
	mustSend                     // a joiner's request, a worker's reports: a failure ends the run
)

// outSend is one send of the machine's outbox.
type outSend struct {
	to     int
	env    Envelope
	policy sendPolicy
}

// fifo is a first-in first-out queue that reuses its storage once
// drained, so a steady round allocates nothing for queueing.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) push(v ...T) { q.items = append(q.items, v...) }

func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// adopt installs the protocol state this peer plays from round first
// on at the given roster version, and publishes its roster view.
func (m *elasticMachine) adopt(p *core.PeerState, version uint64, first int) {
	m.p, m.version, m.survivors = p, version, p.Survivors()
	m.round = first
	m.res.FirstRound = first
	m.res.Played = make([]float64, 0, m.last)
	m.res.Costs = make([]float64, 0, m.last)
	m.res.EvictionRound = make(map[int]int)
	m.res.AdmissionRound = make(map[int]int)
	m.announced = make(map[int]bool)
	if reg := core.RegistryFrom(m.opts...); reg != nil {
		node := fmt.Sprintf("peer-%d", m.id)
		m.timeouts = reg.Counter(MetricRoundTimeouts, "Collection phases that hit their deadline.")
		m.evictions = reg.Counter(MetricPeersEvicted, "Fail-stop evictions applied by fully-distributed peers.")
		m.joins = reg.CounterVec(MetricRosterJoins, "Admissions applied by elastic peers.", "node").WithLabelValues(node)
		m.gSize = reg.GaugeVec(MetricRosterSize, "Peer's current view of the live roster size.", "node").WithLabelValues(node)
		m.gVersion = reg.GaugeVec(MetricRosterVersion, "Peer's applied roster version.", "node").WithLabelValues(node)
		m.gDepth = reg.GaugeVec(MetricRosterAggDepth, "Depth of the hierarchical aggregation tree.", "node").WithLabelValues(node)
		m.setRosterGauges()
	}
	if m.cfg.Topology == TopologyTree {
		m.setTree()
	}
}

// setRosterGauges refreshes the survivor cache and publishes the roster
// view after a membership change.
func (m *elasticMachine) setRosterGauges() {
	m.survivors = m.p.Survivors()
	if m.gSize == nil {
		return
	}
	m.gSize.Set(float64(len(m.survivors)))
	m.gVersion.Set(float64(m.version))
}

// start is the first input: an incumbent begins its first round, a
// joiner sends its request and waits joinTimeoutRounds deadlines for
// the grant.
func (m *elasticMachine) start() {
	if m.p != nil {
		m.startRound(m.round)
		return
	}
	m.send(m.contact, wire.NewEnvelope(m.id, m.contact, core.JoinRequest{From: m.id}), mustSend)
	m.wait = joinTimeoutRounds * m.cfg.RoundTimeout
}

// handle applies one received envelope.
func (m *elasticMachine) handle(env Envelope) {
	if m.p == nil {
		m.awaitGrant(env)
		return
	}
	accepted, err := m.handleEnvelope(env)
	switch {
	case err != nil:
		m.fail(err)
	case accepted:
		m.arm()
	}
}

// sendFailed reports that s, not best-effort, failed with err while the
// caller's context and this peer's transport were alive.
func (m *elasticMachine) sendFailed(s outSend, err error) {
	switch s.policy {
	case mustSend:
		m.fail(fmt.Errorf("cluster: peer %d join request: %w", m.id, err))
	case evictAfter:
		m.evicting.push(s.to)
	case evictNow:
		rest := append([]outSend(nil), m.out.items[m.out.head:]...)
		m.out = fifo[outSend]{items: m.out.items[:0]}
		m.evictPeer(s.to, true)
		m.out.push(rest...)
	}
}

// stop ends the run when the caller's context ends (an error) or this
// peer's own transport dies (Crashed, e.g. a chaos-injected crash).
func (m *elasticMachine) stop(err error, canceled bool) {
	if canceled {
		m.fail(fmt.Errorf("cluster: peer %d round %d: %w", m.id, m.round, err))
		return
	}
	m.res.Crashed, m.finished = true, true
}

// fail ends the run with err; sends queued before it still go out. The
// one err that is no failure is a self-eviction notice, live or replayed
// from an admitted joiner's backlog: a survivor declared us crashed, and
// fail-stop demands we stop, with SelfEvicted set.
func (m *elasticMachine) fail(err error) {
	switch {
	case m.finished:
	case errors.Is(err, errSelfEvicted):
		m.res.SelfEvicted, m.finished = true, true
	default:
		m.finish(err)
	}
}

// next returns the next send in emission order, running queued work
// until one exists; false means the machine awaits an input or is done.
func (m *elasticMachine) next() (outSend, bool) {
	for {
		switch {
		case m.out.len() > 0:
			return m.out.pop(), true
		case m.finished:
			return outSend{}, false
		case m.evicting.len() > 0:
			m.evictPeer(m.evicting.pop(), true)
		case m.redrain:
			m.redrain = false
			m.drainAggs()
		case m.outs.len() > 0:
			m.dispatch(m.outs.pop())
		case m.roundDone:
			m.roundDone = false
			m.res.Rounds = m.round
			if m.round >= m.last {
				m.finished = true
			} else {
				m.startRound(m.round + 1)
			}
		default:
			return outSend{}, false
		}
	}
}

// dispatch turns one core output into sends: a share to every other
// survivor (flat mode only), a decision to its live straggler.
func (m *elasticMachine) dispatch(o core.PeerOutput) {
	switch {
	case o.Share != nil:
		if m.tree != nil {
			return // tree mode aggregates shares instead of broadcasting
		}
		msg := any(*o.Share)
		for _, j := range m.survivors {
			if j != m.id {
				m.send(j, wire.NewEnvelope(m.id, j, msg), evictAfter)
			}
		}
	case o.Decision != nil:
		if m.p.Alive(o.Decision.To) {
			m.send(o.Decision.To, wire.NewEnvelope(m.id, o.Decision.To, *o.Decision), evictAfter)
		}
	case o.Done:
		m.roundDone = true
	}
}

// startRound runs the top of round r: due admissions, the coordinator's
// join announcements, then the peer's play and observation and its
// share (Algorithm 2, lines 1-4).
func (m *elasticMachine) startRound(r int) {
	m.round = r
	if err := m.applyAdmissions(r); err != nil {
		m.fail(err)
		return
	}
	m.drainJoinQueue(r)
	x := m.p.Play()
	cost, f, err := m.src.Observe(r, x)
	if err != nil {
		m.fail(fmt.Errorf("cluster: peer %d observe round %d: %w", m.id, r, err))
		return
	}
	obs, err := m.p.Observe(cost, f)
	if err != nil {
		m.fail(err)
		return
	}
	m.res.Played = append(m.res.Played, x)
	m.res.Costs = append(m.res.Costs, cost)
	if m.tree != nil && m.p.AliveCount() > 1 {
		for _, o := range obs {
			if o.Share != nil {
				m.beginTreeRound(*o.Share)
			} else {
				m.outs.push(o)
			}
		}
		m.redrain = true
	} else {
		m.outs.push(obs...)
	}
	m.arm()
}

// handleEnvelope applies one incoming message to the protocol state and
// reports whether it counted as progress (which re-arms the deadline).
func (m *elasticMachine) handleEnvelope(env Envelope) (bool, error) {
	if _, join := env.Msg.(core.JoinRequest); !join && !m.p.Counted(env.From) {
		// Traffic from an id this peer has never counted: a joiner we were
		// told about but have not admitted yet (buffer and replay at the
		// admission boundary), or noise from a diverged view (drop).
		if m.pendingJoin(env.From) && len(m.backlog) < maxBacklog {
			m.backlog = append(m.backlog, env)
		}
		return false, nil
	}
	switch msg := env.Msg.(type) {
	case core.PeerShare:
		if m.tree != nil || msg.Round < m.p.Round() {
			return false, nil // tree mode aggregates instead; or stale
		}
		return m.progress(m.p.HandleShare(msg))
	case core.PeerDecision:
		if msg.Round < m.p.Round() || msg.To != m.id {
			// Stale, or routed under a diverged straggler view that an
			// in-flight eviction is about to reconcile.
			return false, nil
		}
		return m.progress(m.p.HandleDecision(msg))
	case core.PeerEvict:
		if msg.Evicted == m.id {
			return false, errSelfEvicted // fail-stop: a survivor declared us crashed
		}
		m.evictPeer(msg.Evicted, false)
		m.redrain = true
		return true, nil
	case core.JoinRequest:
		m.handleJoin(msg)
	case core.RosterUpdate:
		return m.handleRosterUpdate(msg), nil
	case core.PeerAggregate:
		return m.handleAggregate(msg), nil
	}
	return false, nil
}

// progress queues the outputs of a core transition. A frame the core
// refused on arrival is dropped and does not count as progress, like
// any other frame outside the protocol's windows.
func (m *elasticMachine) progress(outs []core.PeerOutput, err error) (bool, error) {
	switch {
	case errors.Is(err, core.ErrRejected):
		return false, nil
	case err != nil:
		return false, fmt.Errorf("cluster: peer %d: %w", m.id, err)
	}
	m.outs.push(outs...)
	return true, nil
}

// result is the peer's summary so far; the loop adds its traffic.
func (m *elasticMachine) result() ElasticPeerResult {
	if m.p != nil {
		m.res.FinalX = m.p.X()
		m.res.FinalLocalAlpha = m.p.LocalAlpha()
		m.res.Survivors = m.p.Survivors()
		m.res.RosterVersion = m.version
	}
	return m.res
}
