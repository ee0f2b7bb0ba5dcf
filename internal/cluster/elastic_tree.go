package cluster

import (
	"fmt"

	"dolbie/internal/core"
	"dolbie/internal/wire"
)

// This file is the elastic machine's hierarchical aggregation
// (TopologyTree; the overlay's shape is overlay.go). Each peer merges
// its subtree's shares into one core.PeerAggregate and sends it to its
// parent; the root turns the merge into the round consensus and sends
// it back down. Aggregates carry the sender's roster version (epoch);
// on a mid-round eviction every survivor rebuilds the tree, restarts
// the round's aggregation under the new epoch and drops stale-epoch
// traffic.

// setTree re-derives the overlay from the current survivors.
func (m *elasticMachine) setTree() {
	m.tree = newAggTree(m.survivors, m.cfg.Fanout)
	m.res.AggDepth = m.tree.depth()
	if m.gDepth != nil {
		m.gDepth.Set(float64(m.tree.depth()))
	}
}

// rebuildTree re-derives the overlay and, when a collection is in
// flight, restarts the round's aggregation under the new epoch (every
// survivor does the same on applying the eviction, so contributions are
// re-sent and stale-epoch traffic is dropped).
func (m *elasticMachine) rebuildTree() {
	m.setTree()
	if m.sharePhase {
		m.restartAggregation()
	}
}

// beginTreeRound starts the aggregation for the share Observe produced.
func (m *elasticMachine) beginTreeRound(share core.PeerShare) {
	m.ownShare = share
	m.sharePhase = true
	m.aggRound = share.Round
	m.restartAggregation()
}

// restartAggregation resets the round's tree state to the own-share
// aggregate under the current epoch and advances at once if this peer
// has no pending children.
func (m *elasticMachine) restartAggregation() {
	m.treeAgg = core.ShareAggregate(m.ownShare, m.version)
	m.treeWaiting = make(map[int]bool)
	for _, c := range m.tree.children(m.id) {
		m.treeWaiting[c] = true
	}
	m.treeSentUp = false
	m.maybeAdvanceTree()
}

// maybeAdvanceTree forwards the merged aggregate to the parent once all
// children have reported — or, at the root, turns it into the round
// consensus and starts the down phase.
func (m *elasticMachine) maybeAdvanceTree() {
	if !m.sharePhase || m.treeSentUp || len(m.treeWaiting) > 0 {
		return
	}
	if m.id == m.tree.root() {
		down := m.treeAgg
		down.Down = true
		down.From = m.id
		m.applyDownAggregate(down)
		return
	}
	parent, ok := m.tree.parent(m.id)
	if !ok {
		m.fail(fmt.Errorf("cluster: peer %d: no parent in aggregation tree", m.id))
		return
	}
	up := m.treeAgg
	up.From = m.id
	m.treeSentUp = true
	m.send(parent, wire.NewEnvelope(m.id, parent, up), evictNow)
}

// applyDownAggregate applies the round consensus carried by a down-phase
// aggregate and relays it to this peer's children. The local
// application comes first, mirroring flat mode where a peer completes
// its round before any post-consensus send can fail.
func (m *elasticMachine) applyDownAggregate(a core.PeerAggregate) {
	if !m.p.Alive(a.Straggler) {
		// Divergent view: the consensus names a peer we already evicted.
		// Drop it; the resend/deadline machinery reconverges.
		return
	}
	outs, err := m.p.ApplyConsensus(m.p.Round(), a.Straggler, a.MinAlpha, a.MaxCost, a.MaxRenorm)
	if err != nil {
		m.fail(fmt.Errorf("cluster: peer %d: %w", m.id, err))
		return
	}
	m.outs.pushAll(outs)
	m.sharePhase = false
	fwd := a
	fwd.From = m.id
	for _, c := range m.tree.children(m.id) {
		if m.p.Alive(c) {
			m.send(c, wire.NewEnvelope(m.id, c, fwd), evictNow)
		}
	}
}

// processAggregate handles an aggregate matching the current round and
// epoch.
func (m *elasticMachine) processAggregate(a core.PeerAggregate) {
	if a.Down {
		m.applyDownAggregate(a)
		return
	}
	if !m.treeWaiting[a.From] {
		return // duplicate, or sent under a stale tree layout
	}
	delete(m.treeWaiting, a.From)
	m.treeAgg = m.treeAgg.Merge(a)
	m.maybeAdvanceTree()
}

// handleAggregate routes an incoming aggregate: stale rounds and epochs
// are dropped, early ones buffered, matching ones processed. It reports
// whether the aggregate counted as progress.
func (m *elasticMachine) handleAggregate(a core.PeerAggregate) bool {
	if m.tree == nil {
		return false // stray aggregate in flat mode
	}
	r := m.p.Round()
	switch {
	case a.Round < r:
		return false
	case a.Round > r || (!m.sharePhase && m.aggRound != a.Round):
		return m.bufferAgg(a) // a round we have not observed yet
	case !m.sharePhase:
		return false // consensus already applied this round
	case a.Epoch < m.version:
		return false // stale epoch: the sender will restart and resend
	case a.Epoch > m.version:
		// The sender applied a membership change we have not seen yet.
		return m.bufferAgg(a)
	}
	m.processAggregate(a)
	return true
}

// bufferAgg holds an aggregate that is early for this peer, inside the
// window a correct sender can produce: at most one round ahead (no peer
// starts round r+2 before this peer's round-r+1 contribution is in), an
// epoch at most epochLead past the roster version, and no copy of one
// already held (a sender contributes once per round, epoch and phase).
// Aggregates outside the window are dropped and are no progress; one
// behind the version is progress but never processable, so it is not
// kept. Kept aggregates are thus distinct in (From, Round, Epoch, Down)
// over counted senders, two rounds and epochLead+1 epochs.
func (m *elasticMachine) bufferAgg(a core.PeerAggregate) bool {
	v := m.version
	if a.Round > m.p.Round()+1 || a.Epoch > v+m.epochLead() {
		return false
	}
	m.pruneAggs()
	for _, b := range m.pendingAggs {
		if b.From == a.From && b.Round == a.Round && b.Epoch == a.Epoch && b.Down == a.Down {
			return false
		}
	}
	if a.Epoch >= v {
		m.pendingAggs = append(m.pendingAggs, a)
	}
	return true
}

// epochLead bounds how far a correct peer's roster version can run
// ahead of this peer's: by evictions of members this peer still counts
// live, and by admissions announced but not yet applied here.
func (m *elasticMachine) epochLead() uint64 {
	return uint64(len(m.survivors) + maxPendingAdmissions)
}

// pruneAggs drops buffered aggregates no later state can process: an
// earlier round, or an epoch behind the roster version (versions never
// decrease).
func (m *elasticMachine) pruneAggs() {
	r, v := m.p.Round(), m.version
	kept := m.pendingAggs[:0]
	for _, a := range m.pendingAggs {
		if a.Round >= r && a.Epoch >= v {
			kept = append(kept, a)
		}
	}
	m.pendingAggs = kept
}

// drainAggs processes the first buffered aggregate that now matches the
// round and epoch, dropping stale ones on the way, and asks for another
// pass: processing can advance the round or the epoch, so the rest is
// re-evaluated from scratch, after this one's sends.
func (m *elasticMachine) drainAggs() {
	if m.tree == nil {
		return
	}
	r, v := m.p.Round(), m.version
	kept := m.pendingAggs[:0]
	for i, a := range m.pendingAggs {
		switch {
		case a.Round < r,
			a.Round == r && m.sharePhase && a.Epoch < v,
			a.Round == r && !m.sharePhase && m.aggRound == a.Round:
			// stale: drop
		case a.Round == r && m.sharePhase && a.Epoch == v:
			m.pendingAggs = append(kept, m.pendingAggs[i+1:]...)
			m.processAggregate(a)
			m.redrain = true
			return
		default:
			kept = append(kept, a)
		}
	}
	m.pendingAggs = kept
}
