// Package cluster is the distributed runtime for DOLBIE: it executes the
// master-worker protocol (Algorithm 1) and the fully-distributed protocol
// (Algorithm 2) as real concurrent nodes exchanging messages over a
// pluggable transport. Two transports are provided: an in-memory network
// for tests and simulation, and a TCP transport with length-prefixed
// frames for actual multi-process deployments. Faults (drops,
// duplicates, delays, partitions, crashes) come only from wrapping
// either in the deterministic Chaos transport. Message encoding is owned
// by internal/wire: every transport accepts a wire.Codec (compact
// versioned binary by default, JSON for debugging) and all traffic
// metering uses the frame sizes the codec actually produced — envelopes
// are never re-marshaled to be counted.
//
// The protocol logic itself lives in internal/core as pure state
// machines; this package only moves bytes, enforces deadlines via
// contexts, and counts traffic (which reproduces the communication
// complexity analysis of the paper's Section IV-C: O(N) messages per
// round for master-worker, O(N^2) for fully-distributed).
package cluster

import (
	"dolbie/internal/core"
	"dolbie/internal/wire"
)

// Kind tags the payload type of an Envelope. It aliases wire.Kind; see
// internal/wire for the full wire-format contract.
type Kind = wire.Kind

// The six message kinds of the two DOLBIE protocols, plus the
// fail-stop extension's eviction notice and the elastic-membership
// extension's join, roster-update, and tree-aggregation messages.
const (
	KindCost         = wire.KindCost         // core.CostReport (worker -> master)
	KindCoordinate   = wire.KindCoordinate   // core.Coordinate (master -> all workers)
	KindDecision     = wire.KindDecision     // core.DecisionReport (worker -> master)
	KindAssign       = wire.KindAssign       // core.StragglerAssign (master -> straggler)
	KindShare        = wire.KindShare        // core.PeerShare (peer -> all peers)
	KindPeerDecision = wire.KindPeerDecision // core.PeerDecision (peer -> straggler)
	KindEvict        = wire.KindEvict        // core.PeerEvict (peer -> all peers)
	KindJoin         = wire.KindJoin         // core.JoinRequest (joiner -> any member)
	KindRosterUpdate = wire.KindRosterUpdate // core.RosterUpdate (coordinator -> members + joiner)
	KindAggregate    = wire.KindAggregate    // core.PeerAggregate (tree child <-> parent)
)

// Envelope is the wire unit: a typed, routed protocol message. It
// aliases wire.Envelope, which carries the payload as a typed value and
// defers all encoding to the transport's codec.
type Envelope = wire.Envelope

// NewEnvelope routes a typed payload into an envelope. It performs no
// marshaling; payload/kind consistency is checked when a codec encodes
// the frame.
func NewEnvelope(kind Kind, from, to int, payload any) Envelope {
	return wire.NewEnvelope(kind, from, to, payload)
}

// Convenience constructors for each protocol message.

func costEnvelope(to int, r core.CostReport) Envelope {
	return NewEnvelope(KindCost, r.From, to, r)
}

func coordinateEnvelope(from, to int, c core.Coordinate) Envelope {
	return NewEnvelope(KindCoordinate, from, to, c)
}

func decisionEnvelope(to int, r core.DecisionReport) Envelope {
	return NewEnvelope(KindDecision, r.From, to, r)
}

func assignEnvelope(from int, a core.StragglerAssign) Envelope {
	return NewEnvelope(KindAssign, from, a.To, a)
}

func shareEnvelope(to int, s core.PeerShare) Envelope {
	return NewEnvelope(KindShare, s.From, to, s)
}

func peerDecisionEnvelope(d core.PeerDecision) Envelope {
	return NewEnvelope(KindPeerDecision, d.From, d.To, d)
}

func evictEnvelope(to int, e core.PeerEvict) Envelope {
	return NewEnvelope(KindEvict, e.From, to, e)
}

func joinEnvelope(to int, j core.JoinRequest) Envelope {
	return NewEnvelope(KindJoin, j.From, to, j)
}

func rosterUpdateEnvelope(to int, u core.RosterUpdate) Envelope {
	return NewEnvelope(KindRosterUpdate, u.From, to, u)
}

func aggregateEnvelope(to int, a core.PeerAggregate) Envelope {
	return NewEnvelope(KindAggregate, a.From, to, a)
}
