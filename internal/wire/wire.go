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

// Kind identifies the payload type of an Envelope. It is one byte on
// the binary wire and a short string ("cost", "share", ...) in the JSON
// framing.
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

// Envelope is the in-memory wire unit: a typed, routed protocol
// message. Msg holds the payload struct for Kind (see NewEnvelope);
// codecs encode it without any intermediate representation, so an
// envelope is never marshaled until a transport actually frames it.
type Envelope struct {
	// Kind tags the payload type held in Msg.
	Kind Kind
	// From is the sending node id.
	From int
	// To is the destination node id.
	To int
	// Msg is the typed payload: core.CostReport for KindCost,
	// core.Coordinate for KindCoordinate, and so on; ReliableFrame for
	// KindReliable.
	Msg any
}

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

// NewEnvelope routes a typed payload. Unlike the old JSON-envelope
// constructor it performs no marshaling, so building an envelope is
// allocation-free; payload/kind consistency is enforced when a codec
// encodes the frame.
func NewEnvelope(kind Kind, from, to int, msg any) Envelope {
	return Envelope{Kind: kind, From: from, To: to, Msg: msg}
}

// Decode copies the envelope's typed payload into v, which must be a
// pointer to the payload type for the envelope's kind (for example
// *core.CostReport for KindCost). It exists so receive loops keep the
// familiar env.Decode(&msg) shape; a type mismatch is an error, never a
// partial decode.
func (e Envelope) Decode(v any) error {
	switch dst := v.(type) {
	case *core.CostReport:
		if m, ok := e.Msg.(core.CostReport); ok {
			*dst = m
			return nil
		}
	case *core.Coordinate:
		if m, ok := e.Msg.(core.Coordinate); ok {
			*dst = m
			return nil
		}
	case *core.DecisionReport:
		if m, ok := e.Msg.(core.DecisionReport); ok {
			*dst = m
			return nil
		}
	case *core.StragglerAssign:
		if m, ok := e.Msg.(core.StragglerAssign); ok {
			*dst = m
			return nil
		}
	case *core.PeerShare:
		if m, ok := e.Msg.(core.PeerShare); ok {
			*dst = m
			return nil
		}
	case *core.PeerDecision:
		if m, ok := e.Msg.(core.PeerDecision); ok {
			*dst = m
			return nil
		}
	case *ReliableFrame:
		if m, ok := e.Msg.(ReliableFrame); ok {
			*dst = m
			return nil
		}
	case *core.PeerEvict:
		if m, ok := e.Msg.(core.PeerEvict); ok {
			*dst = m
			return nil
		}
	case *core.JoinRequest:
		if m, ok := e.Msg.(core.JoinRequest); ok {
			*dst = m
			return nil
		}
	case *core.RosterUpdate:
		if m, ok := e.Msg.(core.RosterUpdate); ok {
			*dst = m
			return nil
		}
	case *core.PeerAggregate:
		if m, ok := e.Msg.(core.PeerAggregate); ok {
			*dst = m
			return nil
		}
	}
	return fmt.Errorf("wire: %s envelope holds %T, cannot decode into %T", e.Kind, e.Msg, v)
}

// check validates that Msg holds the payload type for Kind and that the
// payload's routing fields agree with the envelope's, so both codecs
// reject inconsistent envelopes identically (the binary codec does not
// re-transmit redundant routing fields and reconstructs them from the
// envelope on decode).
func (e Envelope) check() error {
	mismatch := func(field string) error {
		return fmt.Errorf("wire: %s payload %s disagrees with envelope routing", e.Kind, field)
	}
	switch e.Kind {
	case KindCost:
		m, ok := e.Msg.(core.CostReport)
		if !ok {
			return e.typeErr()
		}
		if m.From != e.From {
			return mismatch("From")
		}
	case KindCoordinate:
		if _, ok := e.Msg.(core.Coordinate); !ok {
			return e.typeErr()
		}
	case KindDecision:
		m, ok := e.Msg.(core.DecisionReport)
		if !ok {
			return e.typeErr()
		}
		if m.From != e.From {
			return mismatch("From")
		}
	case KindAssign:
		m, ok := e.Msg.(core.StragglerAssign)
		if !ok {
			return e.typeErr()
		}
		if m.To != e.To {
			return mismatch("To")
		}
	case KindShare:
		m, ok := e.Msg.(core.PeerShare)
		if !ok {
			return e.typeErr()
		}
		if m.From != e.From {
			return mismatch("From")
		}
	case KindPeerDecision:
		m, ok := e.Msg.(core.PeerDecision)
		if !ok {
			return e.typeErr()
		}
		if m.From != e.From {
			return mismatch("From")
		}
		if m.To != e.To {
			return mismatch("To")
		}
	case KindEvict:
		m, ok := e.Msg.(core.PeerEvict)
		if !ok {
			return e.typeErr()
		}
		if m.From != e.From {
			return mismatch("From")
		}
	case KindJoin:
		m, ok := e.Msg.(core.JoinRequest)
		if !ok {
			return e.typeErr()
		}
		if m.From != e.From {
			return mismatch("From")
		}
	case KindRosterUpdate:
		m, ok := e.Msg.(core.RosterUpdate)
		if !ok {
			return e.typeErr()
		}
		if m.From != e.From {
			return mismatch("From")
		}
	case KindAggregate:
		m, ok := e.Msg.(core.PeerAggregate)
		if !ok {
			return e.typeErr()
		}
		if m.From != e.From {
			return mismatch("From")
		}
	case KindReliable:
		m, ok := e.Msg.(ReliableFrame)
		if !ok {
			return e.typeErr()
		}
		if m.Data != nil {
			if m.Data.Kind == KindReliable {
				return fmt.Errorf("wire: reliable frame cannot nest another reliable frame")
			}
			if err := m.Data.check(); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("wire: cannot encode envelope of %s", e.Kind)
	}
	return nil
}

func (e Envelope) typeErr() error {
	return fmt.Errorf("wire: %s envelope holds %T", e.Kind, e.Msg)
}
