package wire

import (
	"encoding/json"
	"fmt"

	"dolbie/internal/core"
)

// jsonCodec frames envelopes as the runtime's original JSON objects:
// {"kind":"cost","from":0,"to":8,"payload":{...}}. It is kept for
// debugging (frames are readable in a packet capture) and for interop
// with pre-codec deployments; the binary codec is the production
// default.
type jsonCodec struct{}

// Name implements Codec.
func (jsonCodec) Name() string { return "json" }

// jsonEnvelope is the encoded object shape. Payload is the typed
// message on encode and raw bytes on decode.
type jsonEnvelope struct {
	Kind    Kind            `json:"kind"`
	From    int             `json:"from"`
	To      int             `json:"to"`
	Payload json.RawMessage `json:"payload"`
}

// AppendBody implements Codec.
func (jsonCodec) AppendBody(dst []byte, env Envelope) ([]byte, error) {
	if err := env.check(); err != nil {
		return dst, err
	}
	raw, err := json.Marshal(env)
	if err != nil {
		return dst, fmt.Errorf("marshal %s envelope: %w", env.Kind(), err)
	}
	return append(dst, raw...), nil
}

// DecodeBody implements Codec. The codec decodes only envelopes it can
// encode: a decoded envelope must pass the check AppendBody applies, and
// its re-encoded body must fit MaxFrame. The second test can fail where
// the first passes, because a body that omits fields grows when they are
// written back.
func (c jsonCodec) DecodeBody(body []byte) (Envelope, error) {
	if len(body) == 0 {
		return Envelope{}, fmt.Errorf("empty frame body")
	}
	if body[0] != '{' {
		if body[0] == binaryVersion {
			return Envelope{}, fmt.Errorf("frame starts with binary wire version %d, not JSON (peer is using the binary codec)", body[0])
		}
		return Envelope{}, fmt.Errorf("frame does not start with a JSON object (leading byte 0x%02x)", body[0])
	}
	var env Envelope
	if err := env.UnmarshalJSON(body); err != nil {
		return Envelope{}, fmt.Errorf("unmarshal envelope: %w", err)
	}
	n, err := FrameSize(c, env)
	if err != nil {
		return Envelope{}, err
	}
	if n-lenPrefix > MaxFrame {
		return Envelope{}, fmt.Errorf("%s envelope re-encodes to %d bytes, over limit %d", env.Kind(), n-lenPrefix, MaxFrame)
	}
	return env, nil
}

// decodeJSONPayload materializes the typed payload for kind. A missing
// or null payload decodes to the kind's zero value, matching the old
// framing's behavior for empty messages.
func decodeJSONPayload(kind Kind, raw json.RawMessage) (any, error) {
	switch kind {
	case KindCost:
		return unmarshalPayload[core.CostReport](kind, raw)
	case KindCoordinate:
		return unmarshalPayload[core.Coordinate](kind, raw)
	case KindDecision:
		return unmarshalPayload[core.DecisionReport](kind, raw)
	case KindAssign:
		return unmarshalPayload[core.StragglerAssign](kind, raw)
	case KindShare:
		return unmarshalPayload[core.PeerShare](kind, raw)
	case KindPeerDecision:
		return unmarshalPayload[core.PeerDecision](kind, raw)
	case KindEvict:
		return unmarshalPayload[core.PeerEvict](kind, raw)
	case KindJoin:
		return unmarshalPayload[core.JoinRequest](kind, raw)
	case KindRosterUpdate:
		return unmarshalPayload[core.RosterUpdate](kind, raw)
	case KindAggregate:
		return unmarshalPayload[core.PeerAggregate](kind, raw)
	case KindReliable:
		return unmarshalPayload[ReliableFrame](kind, raw)
	default:
		return nil, fmt.Errorf("unknown message kind %v", kind)
	}
}

func unmarshalPayload[T any](kind Kind, raw json.RawMessage) (any, error) {
	var v T
	if len(raw) == 0 || string(raw) == "null" {
		return v, nil
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("unmarshal %s payload: %w", kind, err)
	}
	return v, nil
}

// MarshalJSON keeps nested envelopes (a ReliableFrame's Data field)
// encodable by the standard library using the same object shape as the
// codec itself.
func (e Envelope) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Kind    Kind `json:"kind"`
		From    int  `json:"from"`
		To      int  `json:"to"`
		Payload any  `json:"payload"`
	}{e.Kind(), e.From, e.To, e.Msg})
}

// UnmarshalJSON is the inverse of MarshalJSON: it restores the typed
// payload the frame's kind names, so nested envelopes round-trip through
// encoding/json without losing their types.
func (e *Envelope) UnmarshalJSON(data []byte) error {
	var je jsonEnvelope
	if err := json.Unmarshal(data, &je); err != nil {
		return err
	}
	msg, err := decodeJSONPayload(je.Kind, je.Payload)
	if err != nil {
		return err
	}
	*e = Envelope{From: je.From, To: je.To, Msg: msg}
	return nil
}
