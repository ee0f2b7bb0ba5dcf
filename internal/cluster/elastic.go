package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/metrics"
)

// This file is the runtime of Algorithm 2, the only fully-distributed
// peer loop. Configured with a flat topology, no deadline and no
// joiners, it is the paper's protocol exactly (FullyDistributedDeployment
// runs it that way). Each extension is opt-in:
//
// Fail-stop handling. With a positive RoundTimeout every peer imposes a
// progress deadline of its own, declares the peers it is still missing
// crashed when it expires, broadcasts the eviction so survivors converge
// by union, and continues over the survivor set. The next completed
// round's straggler remainder absorbs the evicted peers' frozen workload
// with no extra message exchange, and the rule-(8) cap is re-evaluated
// at the survivor count (see core.PeerState.Evict).
//
// Elastic membership. Membership can grow (joins) as well as shrink
// (evictions), and the per-round consensus can run over a hierarchical
// aggregation tree instead of the all-to-all share exchange, taking the
// communication cost from O(N^2) to O(N) messages per round.
//
// Membership protocol. The lowest live id is the coordinator (and the
// root of the aggregation tree, so announcements and consensus traverse
// the same FIFO links). A joiner sends a JoinRequest to any member;
// non-coordinators forward it. At the top of each round the coordinator
// drains at most MaxJoinsPerRound pending requests and announces each
// with a RosterUpdate carrying an explicit application round two rounds
// ahead, the joiner's simplex weight, and a starting step size. The
// announcement is sent before any of the coordinator's own round
// traffic, so per-link FIFO ordering guarantees every member holds it
// before the joiner's first round; members apply it at the stated round
// boundary via core.PeerState.Admit (the inverse of the eviction
// renormalization), so the simplex is rescaled on every peer at the
// same instant. The joiner's copy carries the full member snapshot and
// seeds core.NewJoinedPeer.
//
// Aggregation overlay. In TopologyTree each peer sends a
// core.PeerAggregate up a deterministic k-ary tree over the roster
// instead of broadcasting its share. Parents merge child aggregates
// (an associative, commutative, arithmetic-free fold — see
// core.PeerAggregate.Merge), the root applies and broadcasts the
// consensus back down, and the decision phase is unchanged
// (point-to-point to the straggler). Consensus values are bit-identical
// to the flat exchange. Aggregates are tagged with the sender's roster
// version (epoch); on a mid-round eviction every survivor rebuilds the
// tree, restarts the round's aggregation under the new epoch, and
// drops stale-epoch traffic, which makes recovery converge the same
// way flat-mode deadline eviction does.

// ElasticPeerConfig parameterizes RunElasticPeer and JoinElasticPeer.
// Its zero value is the paper's Algorithm 2: flat, no deadline, no
// joiners. Metrics come from the core.WithMetrics option, which also
// instruments traffic, timeouts, evictions and the
// dolbie_cluster_roster_* families.
type ElasticPeerConfig struct {
	// RoundTimeout is the progress deadline: when a peer spends this long
	// in a collection phase without accepting any protocol message, it
	// declares every peer it is still waiting on crashed. It must be
	// generously longer than a healthy round (including chaos delays), or
	// live peers will be evicted. Zero waits forever.
	RoundTimeout time.Duration
	// MinPeers aborts the run with ErrTooFewPeers when fewer peers
	// survive (default 1).
	MinPeers int
	// Topology selects flat all-to-all shares (the default, the paper's
	// Algorithm 2) or hierarchical tree aggregation.
	Topology Topology
	// Fanout is the aggregation tree fanout (DefaultFanout when < 2).
	Fanout int
	// MaxJoinsPerRound bounds roster churn: the coordinator admits at
	// most this many joiners per round (default 1).
	MaxJoinsPerRound int
	// JoinSchedule optionally pins the earliest admission round per
	// joiner id, making join timing deterministic for tests and
	// benchmarks. Only the coordinator consults it; requests from
	// unscheduled ids are admitted on arrival.
	JoinSchedule map[int]int
	// JoinTimeout bounds how long JoinElasticPeer waits for an
	// admission grant (default 10x RoundTimeout; zero then waits
	// forever).
	JoinTimeout time.Duration
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

// ErrTooFewPeers is returned when evictions reduce a peer's view of the
// live set below ElasticPeerConfig.MinPeers.
var ErrTooFewPeers = errors.New("cluster: too few live peers")

// ErrJoinDenied is returned by JoinElasticPeer when the coordinator
// rejects the join (the id was already a member or was evicted —
// fail-stop identities are single-use).
var ErrJoinDenied = errors.New("cluster: join denied")

// ErrJoinTimeout is returned by JoinElasticPeer when no admission grant
// arrives within JoinTimeout.
var ErrJoinTimeout = errors.New("cluster: join timed out")

// errSelfEvicted propagates a received self-eviction notice out of the
// message handler to the run loop, which converts it into a clean
// SelfEvicted result.
var errSelfEvicted = errors.New("cluster: self evicted")

// elasticPeer bundles the mutable state of one elastic peer run so the
// protocol handlers stay small.
type elasticPeer struct {
	ctx   context.Context
	cfg   ElasticPeerConfig
	id    int
	p     *core.PeerState
	rost  *Roster
	meter *Meter
	src   CostSource
	res   ElasticPeerResult

	// survivors caches p.Survivors() for the share broadcast; it is
	// refreshed on every membership change.
	survivors []int

	// tree-mode round state (tree is nil in flat mode)
	tree        *aggTree
	ownShare    core.PeerShare
	sharePhase  bool // between Observe and consensus application
	aggRound    int  // round the tree state was initialized for
	treeAgg     core.PeerAggregate
	treeWaiting map[int]bool
	treeSentUp  bool
	treeStrikes int                  // consecutive deadline expiries without accepted progress
	pendingAggs []core.PeerAggregate // future-round or future-epoch aggregates

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

// newElasticPeer wires the shared state for an incumbent or joiner run.
func newElasticPeer(ctx context.Context, cfg ElasticPeerConfig, reg *metrics.Registry, id int, p *core.PeerState, rost *Roster, meter *Meter, src CostSource, rounds int) *elasticPeer {
	e := &elasticPeer{
		ctx:       ctx,
		cfg:       cfg,
		id:        id,
		p:         p,
		rost:      rost,
		meter:     meter,
		src:       src,
		survivors: p.Survivors(),
		res: ElasticPeerResult{
			ID:             id,
			Played:         make([]float64, 0, rounds),
			Costs:          make([]float64, 0, rounds),
			EvictionRound:  make(map[int]int),
			AdmissionRound: make(map[int]int),
		},
		announced: make(map[int]bool),
	}
	if cfg.Topology == TopologyTree {
		e.tree = newAggTree(rost.Members(), cfg.Fanout)
		e.res.AggDepth = e.tree.depth()
	}
	if reg != nil {
		node := fmt.Sprintf("peer-%d", id)
		e.timeouts = reg.Counter(MetricRoundTimeouts, "Collection phases that hit their deadline.")
		e.evictions = reg.Counter(MetricPeersEvicted, "Fail-stop evictions applied by fully-distributed peers.")
		e.joins = reg.CounterVec(MetricRosterJoins, "Admissions applied by elastic peers.", "node").WithLabelValues(node)
		e.gSize = reg.GaugeVec(MetricRosterSize, "Peer's current view of the live roster size.", "node").WithLabelValues(node)
		e.gVersion = reg.GaugeVec(MetricRosterVersion, "Peer's applied roster version.", "node").WithLabelValues(node)
		e.gDepth = reg.GaugeVec(MetricRosterAggDepth, "Depth of the hierarchical aggregation tree.", "node").WithLabelValues(node)
		e.setRosterGauges()
		if e.tree != nil {
			e.gDepth.Set(float64(e.tree.depth()))
		}
	}
	return e
}

// setRosterGauges refreshes the survivor cache and publishes the roster
// view after a membership change.
func (e *elasticPeer) setRosterGauges() {
	e.survivors = e.p.Survivors()
	if e.gSize == nil {
		return
	}
	e.gSize.Set(float64(e.rost.Size()))
	e.gVersion.Set(float64(e.rost.Version()))
}

// ownDeath distinguishes "my transport is gone" from peer-directed send
// failures (a crash signal about the target).
func (e *elasticPeer) ownDeath(err error) bool {
	return errors.Is(err, ErrChaosCrashed) || errors.Is(err, ErrClosed)
}

// pendingJoin reports whether id has an announced-but-unapplied
// admission.
func (e *elasticPeer) pendingJoin(id int) bool {
	for _, u := range e.pendingAdmissions {
		if u.Join == id {
			return true
		}
	}
	return false
}

// noticeTargets lists the recipients of an eviction broadcast: every
// survivor plus the victim itself (a partitioned-but-living peer must
// learn it has to stop), in ascending order, plus any
// announced-but-unadmitted joiners so their adopted snapshot does not
// keep a dead member.
func (e *elasticPeer) noticeTargets(target int) []int {
	ids := e.p.Survivors()
	out := make([]int, 0, len(ids)+1+len(e.pendingAdmissions))
	added := false
	for _, j := range ids {
		if !added && target < j {
			out = append(out, target)
			added = true
		}
		if j == e.id {
			continue
		}
		out = append(out, j)
	}
	if !added {
		out = append(out, target)
	}
	for _, u := range e.pendingAdmissions {
		out = append(out, u.Join)
	}
	return out
}

// evictPeer applies one eviction and, when broadcast is set (own
// detection rather than a received notice), tells every other peer.
// Notice sends are best-effort: truly dead receivers are caught by
// deadlines, not by send errors. In tree mode the overlay is rebuilt
// and, if a collection was in flight, the round's aggregation restarts
// under the new epoch.
func (e *elasticPeer) evictPeer(target int, broadcast bool) ([]core.PeerOutput, error) {
	if !e.p.Alive(target) {
		return nil, nil
	}
	// Record the round before applying the eviction: retracting the
	// victim's missing message can complete the current collection and
	// advance the peer to the next round.
	round := e.p.Round()
	outs, err := e.p.Evict(target)
	if err != nil {
		return nil, err
	}
	e.rost.ApplyEvict(target, round)
	e.res.Evicted = append(e.res.Evicted, target)
	e.res.EvictionRound[target] = round
	if e.evictions != nil {
		e.evictions.Inc()
	}
	e.setRosterGauges()
	if broadcast {
		note := core.PeerEvict{Round: round, From: e.id, Evicted: target}
		for _, j := range e.noticeTargets(target) {
			//nolint:errcheck // best-effort; survivors also detect by deadline
			e.meter.Send(e.ctx, j, evictEnvelope(j, note))
		}
	}
	if e.p.Round() != round {
		// The retraction completed the round: the in-flight collection
		// (if any) is over.
		e.sharePhase = false
	}
	if e.tree != nil {
		more, err := e.rebuildTree()
		if err != nil {
			return nil, err
		}
		outs = append(outs, more...)
	}
	return outs, nil
}

// dispatch transmits a batch of peer outputs to the current survivors;
// a send failure to a live target is itself a fail-stop crash signal
// and converts into an eviction (whose unlocked outputs join the
// queue). It reports whether a Done output was seen.
func (e *elasticPeer) dispatch(outs []core.PeerOutput) (bool, error) {
	done := false
	queue := outs
	for len(queue) > 0 {
		o := queue[0]
		queue = queue[1:]
		var failed []int
		switch {
		case o.Share != nil:
			if e.tree != nil {
				break // tree mode aggregates shares instead of broadcasting
			}
			for _, j := range e.survivors {
				if j == e.id {
					continue
				}
				if _, err := e.meter.Send(e.ctx, j, shareEnvelope(j, *o.Share)); err != nil {
					if e.ctx.Err() != nil || e.ownDeath(err) {
						return false, err
					}
					failed = append(failed, j)
				}
			}
		case o.Decision != nil:
			if e.p.Alive(o.Decision.To) {
				if _, err := e.meter.Send(e.ctx, o.Decision.To, peerDecisionEnvelope(*o.Decision)); err != nil {
					if e.ctx.Err() != nil || e.ownDeath(err) {
						return false, err
					}
					failed = append(failed, o.Decision.To)
				}
			}
		case o.Done:
			done = true
		}
		for _, j := range failed {
			more, err := e.evictPeer(j, true)
			if err != nil {
				return false, err
			}
			queue = append(queue, more...)
		}
	}
	return done, nil
}

// missing lists the peers the current collection is still waiting on:
// the protocol state machine's view in flat mode and in the decision
// phase, or the overlay's pending children during a tree collection.
// The parent (once the up-phase aggregate is sent) is included only
// from the second consecutive deadline expiry onward: a single crash
// stalls the whole tree, so on the first expiry every peer would
// otherwise evict whatever neighbor it happens to await — inner peers
// their silent child (correct), but peers below the crash site their
// innocent parent, which is merely blocked on the same silent node and
// would split the cluster. Child-only eviction lets the true crash
// site's parent accuse it first; the broadcast notice restarts the
// round everywhere (resetting the strike counter), and the parent edge
// remains a second-strike fallback in case that accuser is itself dead
// or its notice was lost.
func (e *elasticPeer) missing() []int {
	if e.tree == nil || !e.sharePhase {
		return e.p.Missing()
	}
	m := make([]int, 0, len(e.treeWaiting)+1)
	for c := range e.treeWaiting {
		m = append(m, c)
	}
	if e.treeSentUp && e.treeStrikes > 0 {
		if parent, ok := e.tree.parent(e.id); ok {
			m = append(m, parent)
		}
	}
	sort.Ints(m)
	return m
}

// sendTree sends one overlay message; a send failure to a live target
// is a crash signal and converts into an eviction (which rebuilds the
// tree and may restart or complete the round).
func (e *elasticPeer) sendTree(to int, env Envelope) ([]core.PeerOutput, error) {
	if _, err := e.meter.Send(e.ctx, to, env); err != nil {
		if e.ctx.Err() != nil || e.ownDeath(err) {
			return nil, err
		}
		return e.evictPeer(to, true)
	}
	return nil, nil
}

// rebuildTree re-derives the overlay from the current roster and, when
// a collection is in flight, restarts the round's aggregation under the
// new epoch (every survivor does the same on applying the eviction, so
// contributions are re-sent and stale-epoch traffic is dropped).
func (e *elasticPeer) rebuildTree() ([]core.PeerOutput, error) {
	e.tree = newAggTree(e.rost.Members(), e.cfg.Fanout)
	e.res.AggDepth = e.tree.depth()
	if e.gDepth != nil {
		e.gDepth.Set(float64(e.tree.depth()))
	}
	if !e.sharePhase {
		return nil, nil
	}
	return e.restartAggregation()
}

// restartAggregation resets the round's tree state to the own-share
// aggregate under the current epoch and advances immediately if this
// peer has no pending children.
func (e *elasticPeer) restartAggregation() ([]core.PeerOutput, error) {
	e.treeAgg = core.ShareAggregate(e.ownShare, e.rost.Version())
	e.treeWaiting = make(map[int]bool)
	for _, c := range e.tree.children(e.id) {
		e.treeWaiting[c] = true
	}
	e.treeSentUp = false
	return e.maybeAdvanceTree()
}

// maybeAdvanceTree forwards the merged aggregate to the parent once all
// children have reported — or, at the root, turns it into the round
// consensus and starts the down phase.
func (e *elasticPeer) maybeAdvanceTree() ([]core.PeerOutput, error) {
	if !e.sharePhase || e.treeSentUp || len(e.treeWaiting) > 0 {
		return nil, nil
	}
	if e.id == e.tree.root() {
		down := e.treeAgg
		down.Down = true
		down.From = e.id
		return e.applyDownAggregate(down)
	}
	parent, ok := e.tree.parent(e.id)
	if !ok {
		return nil, fmt.Errorf("cluster: peer %d: no parent in aggregation tree", e.id)
	}
	up := e.treeAgg
	up.From = e.id
	e.treeSentUp = true
	return e.sendTree(parent, aggregateEnvelope(parent, up))
}

// applyDownAggregate applies the round consensus carried by a down-phase
// aggregate and relays it to this peer's children. The local
// application happens first, mirroring flat mode where a peer completes
// its round before any post-consensus send can fail.
func (e *elasticPeer) applyDownAggregate(a core.PeerAggregate) ([]core.PeerOutput, error) {
	if !e.p.Alive(a.Straggler) {
		// Divergent view: the consensus names a peer we already evicted.
		// Drop it; the resend/deadline machinery reconverges.
		return nil, nil
	}
	outs, err := e.p.ApplyConsensus(e.p.Round(), a.Straggler, a.MinAlpha, a.MaxCost, a.MaxRenorm)
	if err != nil {
		return nil, fmt.Errorf("cluster: peer %d: %w", e.id, err)
	}
	e.sharePhase = false
	fwd := a
	fwd.From = e.id
	for _, c := range e.tree.children(e.id) {
		if !e.p.Alive(c) {
			continue
		}
		more, err := e.sendTree(c, aggregateEnvelope(c, fwd))
		if err != nil {
			return nil, err
		}
		outs = append(outs, more...)
	}
	return outs, nil
}

// processAggregate handles an aggregate already validated as matching
// the current round and epoch.
func (e *elasticPeer) processAggregate(a core.PeerAggregate) ([]core.PeerOutput, error) {
	if a.Down {
		return e.applyDownAggregate(a)
	}
	if !e.treeWaiting[a.From] {
		return nil, nil // duplicate, or sent under a stale tree layout
	}
	delete(e.treeWaiting, a.From)
	e.treeAgg = e.treeAgg.Merge(a)
	return e.maybeAdvanceTree()
}

// handleAggregate routes an incoming aggregate: stale rounds and epochs
// are dropped, future ones buffered, matching ones processed.
func (e *elasticPeer) handleAggregate(a core.PeerAggregate) ([]core.PeerOutput, bool, error) {
	if e.tree == nil {
		return nil, false, nil // stray aggregate in flat mode
	}
	r := e.p.Round()
	switch {
	case a.Round < r:
		return nil, false, nil
	case a.Round > r || (!e.sharePhase && e.aggRound != a.Round):
		// Future round (we have not observed it yet): buffer.
		e.pendingAggs = append(e.pendingAggs, a)
		return nil, true, nil
	case !e.sharePhase:
		return nil, false, nil // consensus already applied this round
	case a.Epoch < e.rost.Version():
		return nil, false, nil // stale epoch: the sender will restart and resend
	case a.Epoch > e.rost.Version():
		// The sender applied a membership change we have not seen yet:
		// buffer until our version catches up.
		e.pendingAggs = append(e.pendingAggs, a)
		return nil, true, nil
	}
	outs, err := e.processAggregate(a)
	return outs, true, err
}

// drainPendingAggs re-evaluates buffered aggregates after the round or
// the roster version advanced, processing any that now match and
// discarding any that went stale.
func (e *elasticPeer) drainPendingAggs() ([]core.PeerOutput, error) {
	if e.tree == nil {
		return nil, nil
	}
	var outs []core.PeerOutput
	progress := true
	for progress {
		progress = false
		pending := e.pendingAggs
		e.pendingAggs = nil
		for i, a := range pending {
			r := e.p.Round()
			switch {
			case a.Round < r,
				a.Round == r && e.sharePhase && a.Epoch < e.rost.Version(),
				a.Round == r && !e.sharePhase && e.aggRound == a.Round:
				continue // stale: drop
			case a.Round == r && e.sharePhase && a.Epoch == e.rost.Version():
				more, err := e.processAggregate(a)
				if err != nil {
					return outs, err
				}
				outs = append(outs, more...)
				progress = true
				// Processing can advance the round or the epoch; put the
				// rest back and re-evaluate from scratch.
				e.pendingAggs = append(e.pendingAggs, pending[i+1:]...)
			default:
				e.pendingAggs = append(e.pendingAggs, a)
				continue
			}
			break
		}
	}
	return outs, nil
}

// beginTreeRound starts the aggregation for the share just produced by
// Observe.
func (e *elasticPeer) beginTreeRound(share core.PeerShare) ([]core.PeerOutput, error) {
	e.ownShare = share
	e.sharePhase = true
	e.aggRound = share.Round
	return e.restartAggregation()
}

// handleJoin enqueues a join request at the coordinator or forwards it
// toward the coordinator from any other member.
func (e *elasticPeer) handleJoin(j core.JoinRequest) {
	coord := e.rost.Coordinator()
	if coord != e.id {
		if coord >= 0 {
			//nolint:errcheck // best-effort forward; the joiner retries by timeout
			e.meter.Send(e.ctx, coord, joinEnvelope(coord, j))
		}
		return
	}
	if e.announced[j.From] {
		return
	}
	if e.rost.Knows(j.From) {
		if !e.rost.Has(j.From) {
			// An evicted id can never rejoin: its frozen workload was
			// already absorbed, so the identity is spent.
			deny := core.RosterUpdate{From: e.id, Join: j.From}
			//nolint:errcheck // best-effort; the joiner also times out
			e.meter.Send(e.ctx, j.From, rosterUpdateEnvelope(j.From, deny))
		}
		return
	}
	for _, q := range e.joinQueue {
		if q.From == j.From {
			return
		}
	}
	e.joinQueue = append(e.joinQueue, j)
}

// memberSnapshot is the roster the joiner must adopt at its application
// round: the current survivors, every announced-but-unapplied joiner,
// and the new joiner itself.
func (e *elasticPeer) memberSnapshot(join int) []int {
	ids := e.p.Survivors()
	for _, u := range e.pendingAdmissions {
		ids = append(ids, u.Join)
	}
	ids = append(ids, join)
	sort.Ints(ids)
	return ids
}

// drainJoinQueue runs at the coordinator at the top of round r, before
// any of its own round traffic: it announces up to MaxJoinsPerRound
// admissions, each applying at round r+2.
func (e *elasticPeer) drainJoinQueue(r int) {
	if len(e.joinQueue) == 0 || e.id != e.rost.Coordinator() {
		return
	}
	maxJoins := e.cfg.MaxJoinsPerRound
	if maxJoins <= 0 {
		maxJoins = 1
	}
	admitted := 0
	// Drain every request that is due (its scheduled round reached, or
	// unscheduled), preserving arrival order among the due ones. A not-
	// yet-due request stays queued without blocking later arrivals whose
	// schedule comes earlier — join requests race in at deployment start,
	// so queue position must not override the schedule.
	for i := 0; i < len(e.joinQueue) && admitted < maxJoins; {
		j := e.joinQueue[i]
		if sched, ok := e.cfg.JoinSchedule[j.From]; ok && r < sched {
			i++
			continue
		}
		e.joinQueue = append(e.joinQueue[:i], e.joinQueue[i+1:]...)
		if e.rost.Knows(j.From) || e.announced[j.From] {
			continue
		}
		u := core.RosterUpdate{
			Version: e.rost.Version() + uint64(len(e.pendingAdmissions)) + 1,
			Round:   r + 2,
			From:    e.id,
			Join:    j.From,
			Weight:  1 / float64(e.p.AliveCount()+len(e.pendingAdmissions)+1),
			Alpha:   e.p.LocalAlpha(),
		}
		// Announce to the members (all survivors in flat mode, tree
		// children in tree mode — relays fan it out) and to every
		// pending joiner, before any of our own round-r traffic.
		var targets []int
		if e.tree != nil {
			targets = e.tree.children(e.id)
		} else {
			for _, m := range e.p.Survivors() {
				if m != e.id {
					targets = append(targets, m)
				}
			}
		}
		for _, p := range e.pendingAdmissions {
			targets = append(targets, p.Join)
		}
		for _, to := range targets {
			//nolint:errcheck // best-effort; a dead member is caught by deadline
			e.meter.Send(e.ctx, to, rosterUpdateEnvelope(to, u))
		}
		// The joiner's copy carries the snapshot it adopts.
		grant := u
		grant.Members = e.memberSnapshot(j.From)
		//nolint:errcheck // a dead joiner is admitted then deadline-evicted
		e.meter.Send(e.ctx, j.From, rosterUpdateEnvelope(j.From, grant))
		e.pendingAdmissions = append(e.pendingAdmissions, u)
		e.announced[j.From] = true
		admitted++
	}
}

// handleRosterUpdate queues an announced admission for application at
// its stated round boundary and, in tree mode, relays it to this peer's
// children (per-link FIFO then orders it before any later consensus).
func (e *elasticPeer) handleRosterUpdate(u core.RosterUpdate) {
	if u.Round == 0 {
		return // denial: only meaningful to a waiting joiner
	}
	if e.rost.Knows(u.Join) || e.pendingJoin(u.Join) {
		return
	}
	e.pendingAdmissions = append(e.pendingAdmissions, u)
	sort.Slice(e.pendingAdmissions, func(i, k int) bool {
		return e.pendingAdmissions[i].Version < e.pendingAdmissions[k].Version
	})
	if e.tree != nil {
		fwd := u
		fwd.From = e.id
		fwd.Members = nil
		for _, c := range e.tree.children(e.id) {
			//nolint:errcheck // best-effort relay
			e.meter.Send(e.ctx, c, rosterUpdateEnvelope(c, fwd))
		}
	}
}

// applyAdmissions runs at the top of round r: every announced admission
// whose application round has arrived is applied (simplex rescale via
// core.PeerState.Admit plus roster/overlay updates), then traffic that
// arrived early from the new members is replayed.
func (e *elasticPeer) applyAdmissions(r int) ([]core.PeerOutput, error) {
	applied := false
	for len(e.pendingAdmissions) > 0 && e.pendingAdmissions[0].Round <= r {
		u := e.pendingAdmissions[0]
		e.pendingAdmissions = e.pendingAdmissions[1:]
		if e.rost.Knows(u.Join) {
			continue
		}
		if err := e.p.Admit(u.Join, u.Weight); err != nil {
			return nil, fmt.Errorf("cluster: peer %d admit %d: %w", e.id, u.Join, err)
		}
		if err := e.rost.ApplyJoin(u.Join, r, u.Version); err != nil {
			return nil, err
		}
		e.res.Admitted = append(e.res.Admitted, u.Join)
		e.res.AdmissionRound[u.Join] = r
		if e.joins != nil {
			e.joins.Inc()
		}
		applied = true
	}
	if !applied {
		return nil, nil
	}
	e.setRosterGauges()
	if e.tree != nil {
		// Boundary rebuild: no collection is in flight at the top of a
		// round, so this never restarts an aggregation.
		e.tree = newAggTree(e.rost.Members(), e.cfg.Fanout)
		e.res.AggDepth = e.tree.depth()
		if e.gDepth != nil {
			e.gDepth.Set(float64(e.tree.depth()))
		}
	}
	var outs []core.PeerOutput
	backlog := e.backlog
	e.backlog = nil
	for _, env := range backlog {
		more, _, err := e.handleEnvelope(env)
		if err != nil {
			return outs, err
		}
		outs = append(outs, more...)
	}
	return outs, nil
}

// handleEnvelope applies one incoming message to the protocol state.
// It returns any unlocked outputs and whether the message counted as
// protocol progress (which resets the collection deadline).
func (e *elasticPeer) handleEnvelope(env Envelope) ([]core.PeerOutput, bool, error) {
	if !e.rost.Knows(env.From) && env.Kind != KindJoin {
		// Traffic from an id the roster has never seen: a joiner we were
		// told about but have not admitted yet (buffer and replay at the
		// admission boundary), or noise from a diverged view (drop).
		if e.pendingJoin(env.From) {
			e.backlog = append(e.backlog, env)
		}
		return nil, false, nil
	}
	switch env.Kind {
	case KindShare:
		var s core.PeerShare
		if err := env.Decode(&s); err != nil {
			return nil, false, err
		}
		if e.tree != nil {
			return nil, false, nil // tree mode: shares travel as aggregates
		}
		if s.Round < e.p.Round() {
			return nil, false, nil // stale: the sender's view lagged ours
		}
		outs, err := e.p.HandleShare(s)
		if err != nil {
			return nil, false, fmt.Errorf("cluster: peer %d: %w", e.id, err)
		}
		return outs, true, nil
	case KindPeerDecision:
		var d core.PeerDecision
		if err := env.Decode(&d); err != nil {
			return nil, false, err
		}
		if d.Round < e.p.Round() || d.To != e.id {
			// Stale, or routed under a diverged straggler view that an
			// in-flight eviction is about to reconcile.
			return nil, false, nil
		}
		outs, err := e.p.HandleDecision(d)
		if err != nil {
			return nil, false, fmt.Errorf("cluster: peer %d: %w", e.id, err)
		}
		return outs, true, nil
	case KindEvict:
		var ev core.PeerEvict
		if err := env.Decode(&ev); err != nil {
			return nil, false, err
		}
		if ev.Evicted == e.id {
			// A survivor declared us crashed: fail-stop demands we
			// actually stop, even though we are alive.
			return nil, false, errSelfEvicted
		}
		outs, err := e.evictPeer(ev.Evicted, false)
		if err != nil {
			return nil, false, err
		}
		more, err := e.drainPendingAggs()
		if err != nil {
			return outs, false, err
		}
		return append(outs, more...), true, nil
	case KindJoin:
		var j core.JoinRequest
		if err := env.Decode(&j); err != nil {
			return nil, false, err
		}
		e.handleJoin(j)
		return nil, false, nil
	case KindRosterUpdate:
		var u core.RosterUpdate
		if err := env.Decode(&u); err != nil {
			return nil, false, err
		}
		e.handleRosterUpdate(u)
		return nil, true, nil
	case KindAggregate:
		var a core.PeerAggregate
		if err := env.Decode(&a); err != nil {
			return nil, false, err
		}
		return e.handleAggregate(a)
	default:
		return nil, false, nil
	}
}

// run executes rounds first..rounds. Without a RoundTimeout it
// receives on the caller's context and never reads the clock.
func (e *elasticPeer) run(first, rounds int) (ElasticPeerResult, error) {
	p := e.p
	timed := e.cfg.RoundTimeout > 0
	var deadline time.Time
	finalize := func() ElasticPeerResult {
		e.res.FinalX = p.X()
		e.res.FinalLocalAlpha = p.LocalAlpha()
		e.res.Survivors = p.Survivors()
		e.res.RosterVersion = e.rost.Version()
		e.res.RosterLog = e.rost.Events()
		e.res.Traffic = e.meter.Stats()
		return e.res
	}
	// fatal classifies an error that surfaced through a handler path:
	// the peer's own transport dying is a reportable Crashed outcome
	// (overlay relays and eviction cascades can hit it anywhere), while
	// everything else is a genuine failure.
	fatal := func(err error) (ElasticPeerResult, error) {
		if e.ctx.Err() == nil && e.ownDeath(err) {
			e.res.Crashed = true
			return finalize(), nil
		}
		return finalize(), err
	}
	for r := first; r <= rounds; r++ {
		outs, err := e.applyAdmissions(r)
		if err != nil {
			return fatal(err)
		}
		e.drainJoinQueue(r)
		x := p.Play()
		cost, f, err := e.src.Observe(r, x)
		if err != nil {
			return finalize(), fmt.Errorf("cluster: peer %d observe round %d: %w", e.id, r, err)
		}
		obs, err := p.Observe(cost, f)
		if err != nil {
			return finalize(), err
		}
		e.res.Played = append(e.res.Played, x)
		e.res.Costs = append(e.res.Costs, cost)
		if e.tree != nil && p.AliveCount() > 1 {
			var treeOuts []core.PeerOutput
			for _, o := range obs {
				if o.Share != nil {
					more, err := e.beginTreeRound(*o.Share)
					if err != nil {
						if e.ctx.Err() == nil && e.ownDeath(err) {
							e.res.Crashed = true
							return finalize(), nil
						}
						return finalize(), fmt.Errorf("cluster: peer %d round %d: %w", e.id, r, err)
					}
					treeOuts = append(treeOuts, more...)
				} else {
					treeOuts = append(treeOuts, o)
				}
			}
			obs = treeOuts
			more, err := e.drainPendingAggs()
			if err != nil {
				return fatal(err)
			}
			obs = append(obs, more...)
		}
		if outs == nil {
			outs = obs
		} else {
			outs = append(outs, obs...)
		}
		done, err := e.dispatch(outs)
		if err != nil {
			if e.ctx.Err() == nil && e.ownDeath(err) {
				e.res.Crashed = true
				return finalize(), nil
			}
			return finalize(), fmt.Errorf("cluster: peer %d round %d: %w", e.id, r, err)
		}
		if timed {
			deadline = time.Now().Add(e.cfg.RoundTimeout)
		}
		e.treeStrikes = 0
		for !done {
			if p.AliveCount() < e.cfg.MinPeers {
				return finalize(), fmt.Errorf("%w: %d alive, need %d", ErrTooFewPeers, p.AliveCount(), e.cfg.MinPeers)
			}
			recvCtx, cancel := e.ctx, context.CancelFunc(nil)
			if timed {
				recvCtx, cancel = context.WithDeadline(e.ctx, deadline)
			}
			env, _, err := e.meter.Recv(recvCtx)
			if cancel != nil {
				cancel()
			}
			if err != nil {
				if timed && errors.Is(err, context.DeadlineExceeded) && e.ctx.Err() == nil {
					// Progress deadline expired: every peer the current
					// collection still waits on is declared crashed.
					missing := e.missing()
					e.treeStrikes++
					if e.timeouts != nil && len(missing) > 0 {
						e.timeouts.Inc()
					}
					var unlocked []core.PeerOutput
					for _, m := range missing {
						more, err := e.evictPeer(m, true)
						if err != nil {
							return fatal(err)
						}
						unlocked = append(unlocked, more...)
					}
					more, err := e.drainPendingAggs()
					if err != nil {
						return fatal(err)
					}
					unlocked = append(unlocked, more...)
					if done, err = e.dispatch(unlocked); err != nil {
						if e.ctx.Err() == nil && e.ownDeath(err) {
							e.res.Crashed = true
							return finalize(), nil
						}
						return finalize(), fmt.Errorf("cluster: peer %d round %d: %w", e.id, r, err)
					}
					deadline = time.Now().Add(e.cfg.RoundTimeout)
					continue
				}
				if e.ctx.Err() != nil {
					return finalize(), fmt.Errorf("cluster: peer %d recv round %d: %w", e.id, r, err)
				}
				// The transport itself died (e.g. chaos-injected crash).
				e.res.Crashed = true
				return finalize(), nil
			}
			outs, accepted, err := e.handleEnvelope(env)
			if err != nil {
				if errors.Is(err, errSelfEvicted) {
					e.res.SelfEvicted = true
					return finalize(), nil
				}
				return fatal(err)
			}
			if accepted {
				if timed {
					deadline = time.Now().Add(e.cfg.RoundTimeout)
				}
				e.treeStrikes = 0
			}
			if done, err = e.dispatch(outs); err != nil {
				if e.ctx.Err() == nil && e.ownDeath(err) {
					e.res.Crashed = true
					return finalize(), nil
				}
				return finalize(), fmt.Errorf("cluster: peer %d round %d: %w", e.id, r, err)
			}
		}
		e.res.Rounds = r
	}
	return finalize(), nil
}

// RunElasticPeer executes incumbent peer id of an Algorithm 2
// deployment. The zero ElasticPeerConfig runs the paper's protocol; a
// positive RoundTimeout adds fail-stop eviction, and the membership
// fields add coordinator-announced admissions and, under TopologyTree,
// the hierarchical aggregation overlay.
func RunElasticPeer(ctx context.Context, tr Transport, id int, x0 []float64, rounds int, src CostSource, ec ElasticPeerConfig, opts ...core.Option) (ElasticPeerResult, error) {
	if err := ec.check(rounds, src); err != nil {
		return ElasticPeerResult{}, err
	}
	reg := core.RegistryFrom(opts...)
	meter := NewInstrumentedMeter(tr, reg, fmt.Sprintf("peer-%d", id))
	p, err := core.NewPeer(id, x0, opts...)
	if err != nil {
		return ElasticPeerResult{}, err
	}
	members := make([]int, len(x0))
	for i := range members {
		members[i] = i
	}
	e := newElasticPeer(ctx, ec, reg, id, p, NewRoster(members), meter, src, rounds)
	e.res.FirstRound = 1
	return e.run(1, rounds)
}

// check validates the run parameters and fills in defaults.
func (ec *ElasticPeerConfig) check(rounds int, src CostSource) error {
	if rounds <= 0 {
		return errors.New("cluster: rounds must be positive")
	}
	if src == nil {
		return errors.New("cluster: nil cost source")
	}
	if ec.RoundTimeout < 0 {
		return errors.New("cluster: RoundTimeout must not be negative")
	}
	if ec.MinPeers <= 0 {
		ec.MinPeers = 1
	}
	return nil
}

// JoinElasticPeer runs a joiner: it sends a JoinRequest to the contact
// member, waits for the coordinator's admission grant (ErrJoinDenied or
// ErrJoinTimeout otherwise), adopts the granted roster snapshot via
// core.NewJoinedPeer, and then participates like any incumbent from the
// granted application round up to the deployment's final round.
func JoinElasticPeer(ctx context.Context, tr Transport, id, contact, rounds int, src CostSource, ec ElasticPeerConfig, opts ...core.Option) (ElasticPeerResult, error) {
	return joinElasticPeer(ctx, tr, id, contact, rounds, src, ec, nil, opts...)
}

// joinElasticPeer is JoinElasticPeer; requested, when non-nil, is called
// once, as soon as the join request has been sent or the join has
// failed before sending it.
func joinElasticPeer(ctx context.Context, tr Transport, id, contact, rounds int, src CostSource, ec ElasticPeerConfig, requested func(), opts ...core.Option) (ElasticPeerResult, error) {
	signal := func() {
		if requested != nil {
			requested()
			requested = nil
		}
	}
	defer signal()
	if err := ec.check(rounds, src); err != nil {
		return ElasticPeerResult{}, err
	}
	if ec.JoinTimeout <= 0 {
		ec.JoinTimeout = 10 * ec.RoundTimeout
	}
	reg := core.RegistryFrom(opts...)
	meter := NewInstrumentedMeter(tr, reg, fmt.Sprintf("peer-%d", id))
	res := ElasticPeerResult{ID: id}
	_, err := meter.Send(ctx, contact, joinEnvelope(contact, core.JoinRequest{From: id}))
	signal()
	if err != nil {
		return res, fmt.Errorf("cluster: peer %d join request: %w", id, err)
	}
	joinCtx := ctx
	if ec.JoinTimeout > 0 {
		var cancel context.CancelFunc
		joinCtx, cancel = context.WithTimeout(ctx, ec.JoinTimeout)
		defer cancel()
	}
	var grant core.RosterUpdate
	for {
		env, _, err := meter.Recv(joinCtx)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				return res, fmt.Errorf("peer %d: %w", id, ErrJoinTimeout)
			}
			if ctx.Err() != nil {
				return res, fmt.Errorf("cluster: peer %d awaiting admission: %w", id, err)
			}
			res.Crashed = true
			res.Traffic = meter.Stats()
			return res, nil
		}
		if env.Kind != KindRosterUpdate {
			continue
		}
		var u core.RosterUpdate
		if err := env.Decode(&u); err != nil {
			return res, err
		}
		if u.Join != id {
			continue
		}
		if u.Round == 0 {
			return res, fmt.Errorf("peer %d: %w", id, ErrJoinDenied)
		}
		if len(u.Members) == 0 {
			continue // a relayed member copy, not our grant
		}
		grant = u
		break
	}
	p, err := core.NewJoinedPeer(id, grant.Members, grant.Weight, grant.Alpha, grant.Round, opts...)
	if err != nil {
		return res, err
	}
	e := newElasticPeer(ctx, ec, reg, id, p, NewRosterAt(grant.Members, grant.Version), meter, src, rounds)
	e.res.FirstRound = grant.Round
	return e.run(grant.Round, rounds)
}

// ElasticJoin schedules one joiner of an ElasticDeployment.
type ElasticJoin struct {
	// ID is the joiner's peer id; joiners must be numbered contiguously
	// after the incumbents (len(X0), len(X0)+1, ...), matching their
	// transport index.
	ID int
	// Contact is the incumbent the join request is sent to.
	Contact int
	// Round is the earliest round the coordinator admits this joiner
	// (the admission applies two rounds later), making churn timing
	// deterministic.
	Round int
	// Source is the joiner's cost stream.
	Source CostSource
}

// ElasticDeploymentConfig parameterizes ElasticDeployment.
type ElasticDeploymentConfig struct {
	// X0 is the incumbents' initial simplex point (one entry per
	// incumbent).
	X0 []float64
	// Rounds is the deployment length.
	Rounds int
	// Sources holds one cost stream per incumbent.
	Sources []CostSource
	// Joiners schedules elastic joins (may be empty).
	Joiners []ElasticJoin
	// Peer is the per-peer runtime configuration; its JoinSchedule is
	// derived from Joiners.
	Peer ElasticPeerConfig
}

// ElasticDeployment runs a complete elastic Algorithm 2 deployment:
// incumbent i on transports[i] and scheduled joiner k on
// transports[len(X0)+k], each in its own goroutine. Unlike
// FullyDistributedDeployment, one peer's death does not cancel the
// others: crashed and self-evicted peers are reported in their results
// while the survivors keep balancing, and the returned error joins only
// genuine failures (configuration or protocol errors).
func ElasticDeployment(ctx context.Context, transports []Transport, dc ElasticDeploymentConfig, opts ...core.Option) ([]ElasticPeerResult, error) {
	n := len(dc.X0)
	total := n + len(dc.Joiners)
	if len(transports) != total {
		return nil, fmt.Errorf("cluster: need %d transports, got %d", total, len(transports))
	}
	if len(dc.Sources) != n {
		return nil, fmt.Errorf("cluster: need %d cost sources, got %d", n, len(dc.Sources))
	}
	ec := dc.Peer
	if len(dc.Joiners) > 0 {
		ec.JoinSchedule = make(map[int]int, len(dc.Joiners))
		for k, j := range dc.Joiners {
			if j.ID != n+k {
				return nil, fmt.Errorf("cluster: joiner %d must have id %d, got %d", k, n+k, j.ID)
			}
			if j.Contact < 0 || j.Contact >= n {
				return nil, fmt.Errorf("cluster: joiner %d contact %d out of range", j.ID, j.Contact)
			}
			if j.Source == nil {
				return nil, fmt.Errorf("cluster: joiner %d has nil cost source", j.ID)
			}
			ec.JoinSchedule[j.ID] = j.Round
		}
	}
	var (
		wg        sync.WaitGroup
		requested sync.WaitGroup
		mu        sync.Mutex
		errs      []error
		res       = make([]ElasticPeerResult, total)
	)
	// Every joiner sends its request before any incumbent starts, so the
	// request already waits in its contact's inbox at round 1 and the
	// coordinator admits it exactly at its scheduled Round. Otherwise a
	// joiner the scheduler runs late is admitted rounds late, or finds a
	// short deployment already finished.
	for _, j := range dc.Joiners {
		wg.Add(1)
		requested.Add(1)
		go func(j ElasticJoin) {
			defer wg.Done()
			r, err := joinElasticPeer(ctx, transports[j.ID], j.ID, j.Contact, dc.Rounds, j.Source, ec, requested.Done, opts...)
			mu.Lock()
			res[j.ID] = r
			if err != nil {
				errs = append(errs, fmt.Errorf("joiner %d: %w", j.ID, err))
			}
			mu.Unlock()
		}(j)
	}
	requested.Wait()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := RunElasticPeer(ctx, transports[i], i, dc.X0, dc.Rounds, dc.Sources[i], ec, opts...)
			mu.Lock()
			res[i] = r
			if err != nil {
				errs = append(errs, fmt.Errorf("peer %d: %w", i, err))
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if len(errs) > 0 {
		return res, errors.Join(errs...)
	}
	return res, nil
}
