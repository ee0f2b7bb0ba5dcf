package cluster

// This file is the elastic machine's roster version and its event log.
// The member set itself lives in one place, core.PeerState: its alive
// set (the survivors every round's consensus runs over) and every id it
// has ever counted (the ids it never readmits).
//
// The roster is a local view — there is no membership service. Peers
// converge the same way evictions already converge (union of broadcast
// notices), extended with coordinator-announced admissions: the lowest
// live id announces each join with an explicit application round two
// rounds in the future, and every member applies it at that round
// boundary, so the simplex renormalization of core.PeerState.Admit
// happens at the same round on every peer.

// RosterEvent records one applied membership change. Join reports
// whether the change was an admission (true) or an eviction (false);
// Round is the round the applying peer was executing; Version is the
// roster version after applying.
type RosterEvent struct {
	// Version is the roster version after this event was applied.
	Version uint64
	// Round is the local round at application time.
	Round int
	// Join distinguishes admissions (true) from evictions (false).
	Join bool
	// Peer is the id that joined or was evicted.
	Peer int
}

// logChange advances the roster version for one membership change this
// peer applied at round and appends it to the result's RosterLog. An
// eviction adds one; an admission moves to max(local+1, announced),
// announced being the version the coordinator's RosterUpdate carries,
// so versions stay strictly increasing on every peer even when
// concurrent changes were applied in different orders.
func (m *elasticMachine) logChange(round int, join bool, peer int, announced uint64) {
	m.version = max(m.version+1, announced)
	m.res.RosterLog = append(m.res.RosterLog, RosterEvent{Version: m.version, Round: round, Join: join, Peer: peer})
}
