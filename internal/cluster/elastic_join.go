package cluster

import (
	"fmt"
	"sort"

	"dolbie/internal/core"
	"dolbie/internal/wire"
)

// This file is the elastic machine's membership protocol: the
// coordinator's join queue and announcements, the members' pending
// admissions and their application at a round boundary, and a joiner's
// wait for its grant.

// Fixed membership parameters. They bound roster churn and what a peer
// holds for frames it cannot use yet, so a hostile or confused sender
// cannot grow a peer's state without limit (DESIGN §11).
const (
	// joinTimeoutRounds is how many RoundTimeouts a joiner waits for its
	// grant (none when RoundTimeout is zero).
	joinTimeoutRounds = 10
	// maxJoinQueue caps the unscheduled join requests the coordinator
	// holds; requests from scheduled joiners are bounded by the schedule.
	maxJoinQueue = 16
	// maxPendingAdmissions caps the announced admissions a member holds:
	// they apply at most three rounds ahead, one per round from each of
	// at most two coordinators (the old and new one around an eviction).
	maxPendingAdmissions = 8
	// maxBacklog caps the messages held from announced joiners until
	// their admission round; a joiner cannot finish its first round
	// before that, so it sends a handful at most.
	maxBacklog = 64
	// maxPeerID bounds joiner ids: core.PeerState indexes its peers
	// densely, so one admitted id of 4e9 would allocate gigabytes.
	maxPeerID = 1 << 16
)

// pendingJoin reports whether id has an announced-but-unapplied
// admission.
func (m *elasticMachine) pendingJoin(id int) bool {
	for _, u := range m.pendingAdmissions {
		if u.Join == id {
			return true
		}
	}
	return false
}

// handleJoin enqueues a join request at the coordinator or forwards it
// toward the coordinator from any other member.
func (m *elasticMachine) handleJoin(j core.JoinRequest) {
	if j.From < 0 || j.From >= maxPeerID {
		return
	}
	if coord := m.survivors[0]; coord != m.id {
		m.send(coord, wire.NewEnvelope(j.From, coord, j), bestEffort)
		return
	}
	if m.announced[j.From] {
		return
	}
	if m.p.Counted(j.From) {
		if !m.p.Alive(j.From) {
			// An evicted id can never rejoin: its frozen workload was
			// already absorbed, so the identity is spent.
			deny := core.RosterUpdate{From: m.id, Join: j.From}
			m.send(j.From, wire.NewEnvelope(m.id, j.From, deny), bestEffort)
		}
		return
	}
	unscheduled := 0
	for _, q := range m.joinQueue {
		if q.From == j.From {
			return
		}
		if _, ok := m.schedule[q.From]; !ok {
			unscheduled++
		}
	}
	if _, ok := m.schedule[j.From]; !ok && unscheduled >= maxJoinQueue {
		return
	}
	m.joinQueue = append(m.joinQueue, j)
}

// memberSnapshot is the roster the joiner must adopt at its application
// round: the current survivors, every announced-but-unapplied joiner,
// and the new joiner itself.
func (m *elasticMachine) memberSnapshot(join int) []int {
	ids := m.p.Survivors()
	for _, u := range m.pendingAdmissions {
		ids = append(ids, u.Join)
	}
	ids = append(ids, join)
	sort.Ints(ids)
	return ids
}

// drainJoinQueue runs at the coordinator at the top of round r, before
// any of its own round traffic: it announces the first due request,
// applying at round r+core.AnnounceLead (one joiner per round). A
// request is due once its scheduled round is reached (or at once if
// unscheduled); a not-yet-due request stays queued without blocking
// later arrivals whose schedule comes earlier — join requests race in
// at deployment start, so queue position must not override the
// schedule.
func (m *elasticMachine) drainJoinQueue(r int) {
	if len(m.joinQueue) == 0 || m.id != m.survivors[0] || len(m.pendingAdmissions) >= maxPendingAdmissions {
		return
	}
	for i := 0; i < len(m.joinQueue); {
		j := m.joinQueue[i]
		if sched, ok := m.schedule[j.From]; ok && r < sched {
			i++
			continue
		}
		m.joinQueue = append(m.joinQueue[:i], m.joinQueue[i+1:]...)
		if m.p.Counted(j.From) || m.announced[j.From] {
			continue
		}
		u := core.RosterUpdate{
			Version: m.version + uint64(len(m.pendingAdmissions)) + 1,
			Round:   r + core.AnnounceLead,
			From:    m.id,
			Join:    j.From,
			Weight:  1 / float64(m.p.AliveCount()+len(m.pendingAdmissions)+1),
			Alpha:   m.p.LocalAlpha(),
		}
		// Announce to every other member and every pending joiner, one
		// hop from here and before the grant or any of our own round-r
		// traffic. The joiner sends only once granted, so with equal
		// link delays this arrives first; unequal delays can reorder the
		// two, which travel on different links (DESIGN §11, limitation 5).
		for _, p := range m.survivors {
			if p != m.id {
				m.send(p, wire.NewEnvelope(m.id, p, u), bestEffort)
			}
		}
		for _, p := range m.pendingAdmissions {
			m.send(p.Join, wire.NewEnvelope(m.id, p.Join, u), bestEffort)
		}
		// The joiner's copy carries the snapshot it adopts.
		grant := u
		grant.Members = m.memberSnapshot(j.From)
		m.send(j.From, wire.NewEnvelope(m.id, j.From, grant), bestEffort)
		m.pendingAdmissions = append(m.pendingAdmissions, u)
		m.announced[j.From] = true
		return // one admission per round
	}
}

// handleRosterUpdate queues an announced admission for application at
// its stated round boundary. It accepts only what a coordinator can
// announce: an application round two rounds past the coordinator's,
// which is at most one round ahead of this peer (so rounds r..r+3), a
// version within epochLead, and a joiner id below maxPeerID. It
// reports whether the update counted as progress.
func (m *elasticMachine) handleRosterUpdate(u core.RosterUpdate) bool {
	if u.Round == 0 {
		return true // a denial: only meaningful to a waiting joiner
	}
	r := m.p.Round()
	if u.Round < r || u.Round > r+3 || u.Version > m.version+m.epochLead() ||
		u.Join < 0 || u.Join >= maxPeerID || len(m.pendingAdmissions) >= maxPendingAdmissions {
		return false
	}
	if m.p.Counted(u.Join) || m.pendingJoin(u.Join) {
		return true
	}
	m.pendingAdmissions = append(m.pendingAdmissions, u)
	sort.Slice(m.pendingAdmissions, func(i, k int) bool {
		return m.pendingAdmissions[i].Version < m.pendingAdmissions[k].Version
	})
	return true
}

// applyAdmissions runs at the top of round r: every announced admission
// whose application round has arrived is applied (simplex rescale via
// core.PeerState.Admit plus roster/overlay updates), then traffic that
// arrived early from the new members is replayed.
func (m *elasticMachine) applyAdmissions(r int) error {
	applied := false
	for len(m.pendingAdmissions) > 0 && m.pendingAdmissions[0].Round <= r {
		u := m.pendingAdmissions[0]
		m.pendingAdmissions = m.pendingAdmissions[1:]
		if m.p.Counted(u.Join) {
			continue
		}
		if err := m.p.Admit(u.Join, u.Weight); err != nil {
			return fmt.Errorf("cluster: peer %d admit %d: %w", m.id, u.Join, err)
		}
		m.logChange(r, true, u.Join, u.Version)
		m.res.Admitted = append(m.res.Admitted, u.Join)
		m.res.AdmissionRound[u.Join] = r
		if m.joins != nil {
			m.joins.Inc()
		}
		applied = true
	}
	if !applied {
		return nil
	}
	m.setRosterGauges()
	if m.tree != nil {
		// Boundary rebuild: no collection is in flight at the top of a
		// round, so this never restarts an aggregation.
		m.pruneAggs()
		m.setTree()
	}
	backlog := m.backlog
	m.backlog = nil
	for _, env := range backlog {
		if _, err := m.handleEnvelope(env); err != nil {
			return err
		}
	}
	return nil
}

// awaitGrant is a joiner's handling of traffic before its admission:
// everything but its own roster update is dropped. A denial ends the
// join; the grant (the copy carrying the member snapshot) seeds
// core.NewJoinedPeer, and the joiner plays from the granted round. The
// incumbents reach that round up to core.AnnounceLead rounds later, so
// its first collection waits as long as the grant wait; the first frame
// it accepts re-arms the normal deadline.
func (m *elasticMachine) awaitGrant(env Envelope) {
	u, ok := env.Msg.(core.RosterUpdate)
	switch {
	case !ok, u.Join != m.id:
		return
	case u.Round == 0:
		m.fail(fmt.Errorf("peer %d: %w", m.id, ErrJoinDenied))
		return
	case len(u.Members) == 0:
		return // a relayed member copy, not our grant
	}
	for _, id := range u.Members {
		if id >= maxPeerID {
			m.fail(fmt.Errorf("cluster: peer %d: granted member id %d not below %d", m.id, id, maxPeerID))
			return
		}
	}
	p, err := core.NewJoinedPeer(m.id, u.Members, u.Weight, u.Alpha, u.Round, m.opts...)
	if err != nil {
		m.fail(err)
		return
	}
	m.adopt(p, u.Version, u.Round)
	if u.Round > m.last {
		m.finished = true
		return
	}
	m.startRound(u.Round)
	m.wait = joinTimeoutRounds * m.cfg.RoundTimeout
}
