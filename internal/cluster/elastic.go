package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dolbie/internal/core"
)

// This file is the runtime of Algorithm 2, the only fully-distributed
// peer loop. Configured with a flat topology, no deadline and no
// joiners, it is the paper's protocol exactly (FullyDistributedDeployment
// runs it that way); fail-stop eviction, elastic membership and tree
// aggregation are opt-in (DESIGN §11 and §14). Every protocol decision
// is made by elasticMachine, which does no I/O and reads no clock
// (elastic_machine.go; its fail-stop half is elastic_evict.go, the
// membership protocol elastic_join.go, tree aggregation
// elastic_tree.go). runElastic below only moves its sends and receives.

// ElasticPeerConfig parameterizes RunElasticPeer and JoinElasticPeer.
// Its zero value is the paper's Algorithm 2: flat, no deadline, no
// joiners. Metrics come from the core.WithMetrics option, which also
// instruments traffic, timeouts, evictions and the
// dolbie_cluster_roster_* families. The membership protocol's own
// limits are fixed: the coordinator admits one joiner per round, and a
// joiner waits 10 RoundTimeouts for its grant (forever when
// RoundTimeout is zero).
type ElasticPeerConfig struct {
	// RoundTimeout is the progress deadline: when a peer spends this long
	// in a collection phase without accepting any protocol message, it
	// declares every peer it is still waiting on crashed. It must be
	// generously longer than a healthy round (including chaos delays), or
	// live peers will be evicted. Zero waits forever.
	RoundTimeout time.Duration
	// Topology selects flat all-to-all shares (the default, the paper's
	// Algorithm 2) or hierarchical tree aggregation.
	Topology Topology
	// Fanout is the aggregation tree fanout (DefaultFanout when < 2).
	Fanout int
}

// ElasticPeerResult summarizes one peer's run. A peer can finish in
// three ways: completing all rounds, learning of its own eviction
// (SelfEvicted — a partitioned but living peer told to stop), or losing
// its transport mid-run (Crashed — e.g. a chaos-injected crash). Only
// the first is a full-length run; none of the three is an error.
type ElasticPeerResult struct {
	// ID is the peer's index.
	ID int
	// Rounds is the last round this peer completed locally.
	Rounds int
	// FirstRound is the first round this peer played: 1 for incumbents,
	// the granted application round for joiners.
	FirstRound int
	// Played[t] is the workload fraction executed in round FirstRound+t.
	Played []float64
	// Costs[t] is the realized local cost of round FirstRound+t.
	Costs []float64
	// Evicted lists the peers this peer removed, in application order.
	Evicted []int
	// EvictionRound maps each evicted peer to the round this peer was
	// executing when it applied the eviction.
	EvictionRound map[int]int
	// Admitted lists the peers this peer admitted, in application order.
	Admitted []int
	// AdmissionRound maps each admitted peer to the round boundary at
	// which this peer applied the admission.
	AdmissionRound map[int]int
	// SelfEvicted reports that the peer stopped because a survivor
	// declared it crashed.
	SelfEvicted bool
	// Crashed reports that the peer's transport died mid-run.
	Crashed bool
	// FinalX is the peer's workload fraction when it stopped.
	FinalX float64
	// FinalLocalAlpha is the peer's local step size when it stopped.
	FinalLocalAlpha float64
	// Survivors is the peer's final view of the live peer set.
	Survivors []int
	// RosterVersion is the peer's final roster version.
	RosterVersion uint64
	// RosterLog is the peer's applied membership changes in order;
	// versions are strictly increasing (the soak test's invariant).
	RosterLog []RosterEvent
	// AggDepth is the final aggregation tree depth (0 in flat mode).
	AggDepth int
	// Traffic counts the peer's protocol messages and bytes.
	Traffic TrafficStats
}

// ErrJoinDenied is returned by JoinElasticPeer when the coordinator
// rejects the join (the id was already a member or was evicted —
// fail-stop identities are single-use).
var ErrJoinDenied = errors.New("cluster: join denied")

// ErrJoinTimeout is returned by JoinElasticPeer when no admission grant
// arrives within 10 RoundTimeouts.
var ErrJoinTimeout = errors.New("cluster: join timed out")

// errSelfEvicted carries a received self-eviction notice out of the
// message handler, live or replayed, to fail, which stops the run
// without an error.
var errSelfEvicted = errors.New("cluster: self evicted")

// runElastic drives m over tr until it finishes: the one place an
// elastic peer sends, receives and waits for its deadline. It sends and
// receives on a child of the caller's context that only this peer uses,
// so a blocking receive locks no channel another node locks too.
// Without a RoundTimeout it never reads the clock. started, when
// non-nil, runs once the first sends are out (a joiner's request).
func runElastic(ctx context.Context, tr Transport, m *elasticMachine, started func()) (ElasticPeerResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	meter := NewInstrumentedMeter(tr, core.RegistryFrom(m.opts...), fmt.Sprintf("peer-%d", m.id))
	send := func(to int, env Envelope) error {
		_, err := meter.Send(ctx, to, env)
		return err
	}
	m.start()
	err := flush(ctx, m, send, time.Now)
	if started != nil {
		started()
	}
	for err == nil && !m.finished {
		recvCtx, cancel := ctx, context.CancelFunc(nil)
		if !m.deadline.IsZero() {
			recvCtx, cancel = context.WithDeadline(ctx, m.deadline)
		}
		var env Envelope
		env, _, err = meter.Recv(recvCtx)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			m.handle(env)
		} else if ctx.Err() == nil && !m.deadline.IsZero() && errors.Is(err, context.DeadlineExceeded) {
			m.tick()
		} else {
			break
		}
		err = flush(ctx, m, send, time.Now)
	}
	switch {
	case err == nil:
	case ctx.Err() != nil:
		m.fail(fmt.Errorf("cluster: peer %d round %d: %w", m.id, m.round, err))
	default:
		// This peer's own transport died (e.g. a chaos-injected crash).
		m.res.Crashed = true
	}
	res := m.result()
	res.Traffic = meter.Stats()
	return res, m.err
}

// flush hands every pending send of m to send, in emission order, and
// feeds failures back; best-effort sends ignore theirs. Then it arms
// the deadline the input asked for from clock, the one place a peer
// reads the time. It returns the error that ends the run: a protocol
// send failing because the caller's context or this peer's own
// transport is gone.
func flush(ctx context.Context, m *elasticMachine, send func(to int, env Envelope) error, clock func() time.Time) error {
	for {
		s, ok := m.next()
		if !ok {
			if m.wait > 0 {
				m.armAt(clock())
			}
			return nil
		}
		err := send(s.to, s.env)
		switch {
		case err == nil || s.policy == bestEffort:
		case s.policy != mustSend && nodeGone(ctx, err):
			return err
		default:
			m.sendFailed(s, err)
		}
	}
}

// newElasticMachine validates a run and builds peer id's machine for a
// deployment ending at round rounds; schedule pins joiners' earliest
// admission rounds. An incumbent then adopts its state, a joiner its
// grant.
func newElasticMachine(id, rounds int, src CostSource, ec ElasticPeerConfig, schedule map[int]int, opts []core.Option) (*elasticMachine, error) {
	switch {
	case rounds <= 0:
		return nil, errors.New("cluster: rounds must be positive")
	case src == nil:
		return nil, errors.New("cluster: nil cost source")
	case ec.RoundTimeout < 0:
		return nil, errors.New("cluster: RoundTimeout must not be negative")
	}
	return &elasticMachine{cfg: ec, schedule: schedule, id: id, last: rounds, src: src, opts: opts, res: ElasticPeerResult{ID: id}}, nil
}

// incumbentMachine builds incumbent id's machine, starting from x0.
func incumbentMachine(id int, x0 []float64, rounds int, src CostSource, ec ElasticPeerConfig, schedule map[int]int, opts []core.Option) (*elasticMachine, error) {
	m, err := newElasticMachine(id, rounds, src, ec, schedule, opts)
	if err != nil {
		return nil, err
	}
	p, err := core.NewPeer(id, x0, opts...)
	if err != nil {
		return nil, err
	}
	m.adopt(p, 0, 1)
	return m, nil
}

// joinerMachine builds joiner id's machine, which asks contact for
// admission.
func joinerMachine(id, contact, rounds int, src CostSource, ec ElasticPeerConfig, schedule map[int]int, opts []core.Option) (*elasticMachine, error) {
	if id < 0 || id >= maxPeerID {
		return nil, fmt.Errorf("cluster: joiner id %d outside [0, %d)", id, maxPeerID)
	}
	m, err := newElasticMachine(id, rounds, src, ec, schedule, opts)
	if err != nil {
		return nil, err
	}
	m.contact = contact
	return m, nil
}

// RunElasticPeer executes incumbent peer id of an Algorithm 2
// deployment. The zero ElasticPeerConfig runs the paper's protocol; a
// positive RoundTimeout adds fail-stop eviction, joiners are admitted
// through the coordinator, and TopologyTree adds the hierarchical
// aggregation overlay.
func RunElasticPeer(ctx context.Context, tr Transport, id int, x0 []float64, rounds int, src CostSource, ec ElasticPeerConfig, opts ...core.Option) (ElasticPeerResult, error) {
	m, err := incumbentMachine(id, x0, rounds, src, ec, nil, opts)
	if err != nil {
		return ElasticPeerResult{}, err
	}
	return runElastic(ctx, tr, m, nil)
}

// JoinElasticPeer runs a joiner: it sends a JoinRequest to the contact
// member, waits for the coordinator's admission grant (ErrJoinDenied or
// ErrJoinTimeout otherwise), adopts the granted roster snapshot via
// core.NewJoinedPeer, and then participates like any incumbent from the
// granted application round up to the deployment's final round. Joiner
// ids must lie in [0, 65536) and be new to the deployment (an evicted
// id is denied); they need not exceed the ids admitted before them.
func JoinElasticPeer(ctx context.Context, tr Transport, id, contact, rounds int, src CostSource, ec ElasticPeerConfig, opts ...core.Option) (ElasticPeerResult, error) {
	m, err := joinerMachine(id, contact, rounds, src, ec, nil, opts)
	if err != nil {
		return ElasticPeerResult{}, err
	}
	return runElastic(ctx, tr, m, nil)
}
