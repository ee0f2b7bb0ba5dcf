// Package wire is the versioned codec layer of the cluster runtime: it
// owns the wire representation of every protocol message the transports
// exchange. A single Envelope type carries a typed payload (one of the
// DOLBIE protocol messages from internal/core — the six of Algorithms 1
// and 2, the fail-stop eviction notice, and the elastic-membership
// extension's join request, roster update, and hierarchical share
// aggregate — or a reliability frame),
// and a Codec turns envelopes into length-prefixed frames and back. Two
// codecs ship:
//
//   - "json": the original debugging-friendly framing — a JSON object
//     {"kind","from","to","payload"} — kept for interop and for reading
//     traffic with tcpdump or a text log.
//   - "binary": a compact versioned binary format (1 version byte +
//     kind/from/to + fixed-width scalar payloads) that matches the
//     paper's communication model: every protocol message is a handful
//     of scalars, so frames are a few dozen bytes instead of ~100+ of
//     doubly-encoded JSON (Section IV-C's O(N) / O(N^2) scalar
//     messages per round).
//
// Framing is shared by all codecs: a 4-byte big-endian body length,
// bounded by MaxFrame, followed by the codec-specific body. Encode and
// decode paths reuse pooled buffers, and the frame size is returned to
// the caller so traffic metering never re-marshals an envelope.
package wire

import (
	"fmt"

	"dolbie/internal/core"
)

// Kind names the payload type of an Envelope (see Envelope.Kind). It
// is one byte on the binary wire and a short string ("cost", "share",
// ...) in the JSON framing.
type Kind uint8

// The protocol message kinds: the six DOLBIE messages of Algorithms 1
// and 2, the reliability-layer frame that wraps them on lossy links,
// and the fail-stop extension's eviction notice.
const (
	// KindInvalid is the zero Kind; it never appears on a valid frame.
	KindInvalid Kind = iota
	// KindCost tags a core.CostReport (worker -> master).
	KindCost
	// KindCoordinate tags a core.Coordinate (master -> all workers).
	KindCoordinate
	// KindDecision tags a core.DecisionReport (worker -> master).
	KindDecision
	// KindAssign tags a core.StragglerAssign (master -> straggler).
	KindAssign
	// KindShare tags a core.PeerShare (peer -> all peers).
	KindShare
	// KindPeerDecision tags a core.PeerDecision (peer -> straggler).
	KindPeerDecision
	// KindReliable tags a ReliableFrame (reliability layer framing).
	KindReliable
	// KindEvict tags a core.PeerEvict (peer -> all peers): the fail-stop
	// extension's crash declaration for the fully-distributed protocol.
	// It is appended after KindReliable so the byte values of the
	// original kinds stay stable on the versioned binary wire.
	KindEvict
	// KindJoin tags a core.JoinRequest (joiner -> any member): the
	// elastic-membership extension's admission request. Like KindEvict it
	// is appended after the existing kinds to keep byte values stable.
	KindJoin
	// KindRosterUpdate tags a core.RosterUpdate (coordinator -> all
	// members and the joiner): the versioned roster change announcement.
	KindRosterUpdate
	// KindAggregate tags a core.PeerAggregate (tree neighbor -> tree
	// neighbor): one hop of the hierarchical share reduction that
	// replaces the all-to-all broadcast at scale.
	KindAggregate

	kindCount // sentinel: one past the last valid kind
)

var kindNames = [kindCount]string{
	KindInvalid:      "invalid",
	KindCost:         "cost",
	KindCoordinate:   "coordinate",
	KindDecision:     "decision",
	KindAssign:       "assign",
	KindShare:        "share",
	KindPeerDecision: "peer-decision",
	KindReliable:     "reliable",
	KindEvict:        "evict",
	KindJoin:         "join",
	KindRosterUpdate: "roster-update",
	KindAggregate:    "aggregate",
}

// String returns the kind's wire name (also used as a metric label).
func (k Kind) String() string {
	if k < kindCount {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalText implements encoding.TextMarshaler so the JSON framing
// writes kinds as their names.
func (k Kind) MarshalText() ([]byte, error) {
	if k == KindInvalid || k >= kindCount {
		return nil, fmt.Errorf("wire: cannot marshal %v", k)
	}
	return []byte(kindNames[k]), nil
}

// UnmarshalText implements encoding.TextUnmarshaler; unknown names,
// and "invalid", are a decode error, never a silent zero value.
func (k *Kind) UnmarshalText(text []byte) error {
	for v := KindCost; v < kindCount; v++ {
		if kindNames[v] == string(text) {
			*k = v
			return nil
		}
	}
	return fmt.Errorf("wire: unknown message kind %q", text)
}

// Envelope is the in-memory wire unit: a routed protocol message. Its
// payload's type is its kind (see Kind); codecs encode it without any
// intermediate representation, so an envelope is never marshaled until
// a transport actually frames it.
type Envelope struct {
	// From is the sending node id.
	From int
	// To is the destination node id.
	To int
	// Msg is the typed payload: a core.CostReport, core.Coordinate, and
	// so on, or a ReliableFrame.
	Msg any
}

// Kind returns the kind of e's payload: KindCost for a core.CostReport,
// KindReliable for a ReliableFrame, and so on; KindInvalid for a payload
// no kind carries.
func (e Envelope) Kind() Kind { return route(e).kind }

// ReliableFrame is the reliability layer's framing around a protocol
// envelope: a per-destination sequence number, an ack flag, and — for
// data frames — the wrapped envelope. It travels as the payload of a
// KindReliable envelope; nesting a reliable frame inside another is a
// codec error.
type ReliableFrame struct {
	// Seq is the per-destination sequence number.
	Seq uint64 `json:"seq"`
	// Ack marks an acknowledgement of Seq (no data).
	Ack bool `json:"ack"`
	// Data is the wrapped protocol envelope; nil on acks.
	Data *Envelope `json:"data,omitempty"`
}

// NewEnvelope routes a typed payload. It performs no marshaling; the
// routing fields the payload repeats are checked against from and to
// when a codec encodes the frame.
func NewEnvelope(from, to int, msg any) Envelope {
	return Envelope{From: from, To: to, Msg: msg}
}

// Round returns the protocol round env counts in for round-gated faults:
// its payload's round, the wrapped message's for a reliable data frame,
// and for a roster update the round it was sent in, core.AnnounceLead
// before the round it applies at. Acks, denials (a roster update of
// round 0) and unknown payloads have none.
func Round(env Envelope) (int, bool) {
	b := route(env)
	return b.round, b.hasRound
}

// binding is what a payload fixes about the envelope carrying it. It
// is kept to four fields and 32 bytes, so the compiler passes it in
// registers: Kind runs route for every metered message.
type binding struct {
	kind     Kind // KindInvalid: no kind carries the payload
	hasRound bool
	round    int     // 0 unless hasRound
	routing  routing // the routing the payload names; the envelope's own where it repeats none
}

// routing is an envelope's From and To.
type routing struct{ from, to int }

// route is the one binding of each payload type to its kind, its round
// and the routing fields it repeats from its envelope. Envelope.Kind,
// the envelope check, Round and the fault layers all derive from it; the
// codecs' layout switches only say how a payload is laid out.
func route(env Envelope) binding {
	b := binding{hasRound: true, routing: routing{env.From, env.To}}
	switch m := env.Msg.(type) {
	case core.CostReport:
		b.kind, b.round, b.routing.from = KindCost, m.Round, m.From
	case core.Coordinate:
		b.kind, b.round = KindCoordinate, m.Round
	case core.DecisionReport:
		b.kind, b.round, b.routing.from = KindDecision, m.Round, m.From
	case core.StragglerAssign:
		b.kind, b.round, b.routing.to = KindAssign, m.Round, m.To
	case core.PeerShare:
		b.kind, b.round, b.routing.from = KindShare, m.Round, m.From
	case core.PeerDecision:
		b.kind, b.round, b.routing.from, b.routing.to = KindPeerDecision, m.Round, m.From, m.To
	case core.PeerEvict:
		b.kind, b.round, b.routing.from = KindEvict, m.Round, m.From
	case core.JoinRequest:
		b.kind, b.round, b.routing.from = KindJoin, m.Round, m.From
	case core.RosterUpdate:
		b.kind, b.routing.from, b.hasRound = KindRosterUpdate, m.From, m.Round > 0
		if b.hasRound {
			b.round = m.Round - core.AnnounceLead
		}
	case core.PeerAggregate:
		b.kind, b.round, b.routing.from = KindAggregate, m.Round, m.From
	case ReliableFrame:
		b.kind, b.hasRound = KindReliable, false
		if m.Data != nil {
			inner := route(*m.Data)
			b.round, b.hasRound = inner.round, inner.hasRound
		}
	default:
		b.hasRound = false
	}
	return b
}

// check validates that some kind carries Msg and that the routing
// fields the payload repeats agree with the envelope's. Both codecs run
// it on encode and the JSON codec on decode, so they accept the same
// envelopes; the binary codec does not transmit the repeated fields and
// rebuilds them from its header.
func (e Envelope) check() error {
	b := route(e)
	switch {
	case b.kind == KindInvalid:
		return fmt.Errorf("wire: no kind carries a %T payload", e.Msg)
	case b.routing.from != e.From:
		return fmt.Errorf("wire: %s payload From disagrees with envelope routing", b.kind)
	case b.routing.to != e.To:
		return fmt.Errorf("wire: %s payload To disagrees with envelope routing", b.kind)
	}
	if f, ok := e.Msg.(ReliableFrame); ok && f.Data != nil {
		if f.Data.Kind() == KindReliable {
			return fmt.Errorf("wire: reliable frame cannot nest another reliable frame")
		}
		return f.Data.check()
	}
	return nil
}
