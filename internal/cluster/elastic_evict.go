package cluster

import (
	"fmt"
	"sort"

	"dolbie/internal/core"
	"dolbie/internal/wire"
)

// This file is the elastic machine's fail-stop half: the progress
// deadline, the detection rule that turns its expiry into evictions,
// and the eviction itself with its notices.

// arm restarts the progress deadline and the tree's strike count. The
// loop starts the deadline once the input's sends are out, so a round's
// own Observe and sends never count against its collection. With no
// RoundTimeout nothing is armed and the loop reads no clock.
func (m *elasticMachine) arm() {
	m.strikes = 0
	m.wait = m.cfg.RoundTimeout
}

// tick reports that the deadline passed without accepted progress. A
// joiner still waiting for its grant gives up; a member declares every
// peer its collection still waits on crashed.
func (m *elasticMachine) tick() {
	if m.p == nil {
		m.fail(fmt.Errorf("peer %d: %w", m.id, ErrJoinTimeout))
		return
	}
	missing := m.missing()
	m.strikes++
	if m.timeouts != nil && len(missing) > 0 {
		m.timeouts.Inc()
	}
	m.evicting.push(missing...)
	m.redrain = true
	m.wait = m.cfg.RoundTimeout
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
func (m *elasticMachine) missing() []int {
	if m.tree == nil || !m.sharePhase {
		return m.p.Missing()
	}
	out := make([]int, 0, len(m.treeWaiting)+1)
	for c := range m.treeWaiting {
		out = append(out, c)
	}
	if m.treeSentUp && m.strikes > 0 {
		if parent, ok := m.tree.parent(m.id); ok {
			out = append(out, parent)
		}
	}
	sort.Ints(out)
	return out
}

// evictPeer applies one eviction and, when broadcast is set (own
// detection rather than a received notice), tells every other peer.
// Notices are best-effort: truly dead receivers are caught by
// deadlines, not by send errors. In tree mode the overlay is rebuilt
// and, if a collection was in flight, the round's aggregation restarts
// under the new epoch.
func (m *elasticMachine) evictPeer(target int, broadcast bool) {
	if !m.p.Alive(target) {
		return
	}
	// Record the round before applying the eviction: retracting the
	// victim's missing message can complete the current collection and
	// advance the peer to the next round.
	round := m.p.Round()
	outs, err := m.p.Evict(target)
	if err != nil {
		m.fail(err)
		return
	}
	m.logChange(round, false, target, 0)
	m.res.Evicted = append(m.res.Evicted, target)
	m.res.EvictionRound[target] = round
	if m.evictions != nil {
		m.evictions.Inc()
	}
	m.setRosterGauges()
	if broadcast {
		note := core.PeerEvict{Round: round, From: m.id, Evicted: target}
		for _, j := range m.noticeTargets(target) {
			m.send(j, wire.NewEnvelope(m.id, j, note), bestEffort)
		}
	}
	if m.p.Round() != round {
		// The retraction completed the round: the in-flight collection
		// (if any) is over.
		m.sharePhase = false
	}
	m.outs.push(outs...)
	if m.tree != nil {
		m.pruneAggs()
		m.rebuildTree()
	}
}

// noticeTargets lists the recipients of an eviction broadcast: every
// other survivor and the victim itself (a partitioned-but-living peer
// must learn it has to stop), in ascending order, then every
// announced-but-unadmitted joiner so its adopted snapshot does not keep
// a dead member.
func (m *elasticMachine) noticeTargets(target int) []int {
	out := make([]int, 0, len(m.survivors)+1+len(m.pendingAdmissions))
	for _, j := range m.survivors {
		if j != m.id {
			out = append(out, j)
		}
	}
	out = append(out, target)
	sort.Ints(out)
	for _, u := range m.pendingAdmissions {
		out = append(out, u.Join)
	}
	return out
}
