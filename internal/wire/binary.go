package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"dolbie/internal/core"
)

// binaryVersion is the first byte of every binary frame body. Decoders
// reject any other value with a descriptive error, so a peer speaking a
// different codec (a JSON body starts with '{' = 0x7b) or a future
// format revision fails loudly instead of producing garbage scalars.
const binaryVersion = 0x01

// binaryCodec is the compact production framing. Body layout (all
// integers big-endian):
//
//	[0]     version (0x01)
//	[1]     kind
//	[2:6]   from (uint32)
//	[6:10]  to (uint32)
//	[10:]   payload, fixed width per kind:
//
//	cost          round u32, cost f64                          (12 B)
//	coordinate    round u32, straggler u32, globalCost f64,
//	              alpha f64                                    (24 B)
//	decision      round u32, next f64                          (12 B)
//	assign        round u32, next f64                          (12 B)
//	share         round u32, cost f64, localAlpha f64,
//	              renorm f64                                   (28 B)
//	peer-decision round u32, next f64                          (12 B)
//	evict         round u32, evicted u32                       (8 B)
//	join          round u32                                    (4 B)
//	aggregate     round u32, epoch u64, flags u8 (bit0 down),
//	              count u32, straggler u32, maxCost f64,
//	              minAlpha f64, maxRenorm f64                  (45 B)
//	roster-update round u32, version u64, join u32, weight f64,
//	              alpha f64, members u32, member ids u32 each  (36+4k B)
//	reliable      seq u64, flags u8 (bit0 ack, bit1 data),
//	              then the nested envelope's kind/from/to and
//	              payload when bit1 is set                     (9+ B)
//
// Routing fields that a payload struct shares with its envelope (From,
// To) are not re-transmitted; the decoder reconstructs them from the
// header, which is why encoding validates their consistency.
type binaryCodec struct{}

// Name implements Codec.
func (binaryCodec) Name() string { return "binary" }

const binHeader = 10 // version + kind + from + to

// binPayloadSize gives the fixed payload width per kind (reliable
// frames and roster updates are variable and handled separately). It
// is an array indexed by kind, so sizing a frame looks nothing up.
var binPayloadSize = [kindCount]int{
	KindCost:         12,
	KindCoordinate:   24,
	KindDecision:     12,
	KindAssign:       12,
	KindShare:        28,
	KindPeerDecision: 12,
	KindEvict:        8,
	KindJoin:         4,
	KindAggregate:    45,
}

// binRosterFixed is the fixed prefix of a roster-update payload before
// the member-id list: round + version + join + weight + alpha + count.
const binRosterFixed = 4 + 8 + 4 + 8 + 8 + 4

// frameSize implements the arithmetic fast path used by FrameSize: no
// encoding is performed, so metering a binary envelope allocates
// nothing.
func (binaryCodec) frameSize(env Envelope) (int, error) {
	if err := env.check(); err != nil {
		return 0, err
	}
	n, err := binaryBodySize(env)
	if err != nil {
		return 0, err
	}
	return lenPrefix + n, nil
}

func binaryBodySize(env Envelope) (int, error) {
	switch m := env.Msg.(type) {
	case ReliableFrame:
		n := binHeader + 9 // seq + flags
		if m.Data != nil {
			inner, err := binaryBodySize(*m.Data)
			if err != nil {
				return 0, err
			}
			n += inner - 1 // nested body omits the version byte
		}
		return n, nil
	case core.RosterUpdate:
		return binHeader + binRosterFixed + 4*len(m.Members), nil
	default:
		return binHeader + binPayloadSize[env.Kind()], nil
	}
}

// AppendBody implements Codec.
func (binaryCodec) AppendBody(dst []byte, env Envelope) ([]byte, error) {
	if err := env.check(); err != nil {
		return dst, err
	}
	dst = append(dst, binaryVersion)
	return appendBinaryEnvelope(dst, env)
}

// appendBinaryEnvelope encodes kind/from/to and the payload (everything
// after the version byte). It is reused for the nested envelope inside
// a reliable data frame.
func appendBinaryEnvelope(dst []byte, env Envelope) ([]byte, error) {
	from, err := asUint32("from", env.From)
	if err != nil {
		return dst, err
	}
	to, err := asUint32("to", env.To)
	if err != nil {
		return dst, err
	}
	dst = append(dst, byte(env.Kind()))
	dst = binary.BigEndian.AppendUint32(dst, from)
	dst = binary.BigEndian.AppendUint32(dst, to)

	switch m := env.Msg.(type) {
	case core.CostReport:
		if dst, err = appendRound(dst, m.Round); err != nil {
			return dst, err
		}
		dst = appendFloat(dst, m.Cost)
	case core.Coordinate:
		if dst, err = appendRound(dst, m.Round); err != nil {
			return dst, err
		}
		straggler, err := asUint32("straggler", m.Straggler)
		if err != nil {
			return dst, err
		}
		dst = binary.BigEndian.AppendUint32(dst, straggler)
		dst = appendFloat(dst, m.GlobalCost)
		dst = appendFloat(dst, m.Alpha)
	case core.DecisionReport:
		if dst, err = appendRound(dst, m.Round); err != nil {
			return dst, err
		}
		dst = appendFloat(dst, m.Next)
	case core.StragglerAssign:
		if dst, err = appendRound(dst, m.Round); err != nil {
			return dst, err
		}
		dst = appendFloat(dst, m.Next)
	case core.PeerShare:
		if dst, err = appendRound(dst, m.Round); err != nil {
			return dst, err
		}
		dst = appendFloat(dst, m.Cost)
		dst = appendFloat(dst, m.LocalAlpha)
		dst = appendFloat(dst, m.Renorm)
	case core.PeerDecision:
		if dst, err = appendRound(dst, m.Round); err != nil {
			return dst, err
		}
		dst = appendFloat(dst, m.Next)
	case core.PeerEvict:
		if dst, err = appendRound(dst, m.Round); err != nil {
			return dst, err
		}
		evicted, err := asUint32("evicted", m.Evicted)
		if err != nil {
			return dst, err
		}
		dst = binary.BigEndian.AppendUint32(dst, evicted)
	case core.JoinRequest:
		if dst, err = appendRound(dst, m.Round); err != nil {
			return dst, err
		}
	case core.PeerAggregate:
		if dst, err = appendRound(dst, m.Round); err != nil {
			return dst, err
		}
		dst = binary.BigEndian.AppendUint64(dst, m.Epoch)
		var flags byte
		if m.Down {
			flags |= 1
		}
		dst = append(dst, flags)
		count, err := asUint32("count", m.Count)
		if err != nil {
			return dst, err
		}
		dst = binary.BigEndian.AppendUint32(dst, count)
		straggler, err := asUint32("straggler", m.Straggler)
		if err != nil {
			return dst, err
		}
		dst = binary.BigEndian.AppendUint32(dst, straggler)
		dst = appendFloat(dst, m.MaxCost)
		dst = appendFloat(dst, m.MinAlpha)
		dst = appendFloat(dst, m.MaxRenorm)
	case core.RosterUpdate:
		if dst, err = appendRound(dst, m.Round); err != nil {
			return dst, err
		}
		dst = binary.BigEndian.AppendUint64(dst, m.Version)
		join, err := asUint32("join", m.Join)
		if err != nil {
			return dst, err
		}
		dst = binary.BigEndian.AppendUint32(dst, join)
		dst = appendFloat(dst, m.Weight)
		dst = appendFloat(dst, m.Alpha)
		count, err := asUint32("members", len(m.Members))
		if err != nil {
			return dst, err
		}
		dst = binary.BigEndian.AppendUint32(dst, count)
		for _, id := range m.Members {
			member, err := asUint32("member", id)
			if err != nil {
				return dst, err
			}
			dst = binary.BigEndian.AppendUint32(dst, member)
		}
	case ReliableFrame:
		dst = binary.BigEndian.AppendUint64(dst, m.Seq)
		var flags byte
		if m.Ack {
			flags |= 1
		}
		if m.Data != nil {
			flags |= 2
		}
		dst = append(dst, flags)
		if m.Data != nil {
			return appendBinaryEnvelope(dst, *m.Data)
		}
	default:
		return dst, fmt.Errorf("cannot encode %T payload", env.Msg)
	}
	return dst, nil
}

// DecodeBody implements Codec.
func (binaryCodec) DecodeBody(body []byte) (Envelope, error) {
	if len(body) == 0 {
		return Envelope{}, fmt.Errorf("empty frame body")
	}
	if body[0] != binaryVersion {
		if body[0] == '{' {
			return Envelope{}, fmt.Errorf("unsupported wire version 0x%02x: frame looks like JSON (peer is using the json codec)", body[0])
		}
		return Envelope{}, fmt.Errorf("unsupported wire version 0x%02x, want 0x%02x", body[0], binaryVersion)
	}
	env, rest, err := decodeBinaryEnvelope(body[1:], false)
	if err != nil {
		return Envelope{}, err
	}
	if len(rest) != 0 {
		return Envelope{}, fmt.Errorf("%d trailing bytes after %s payload", len(rest), env.Kind())
	}
	return env, nil
}

// decodeBinaryEnvelope parses kind/from/to and the typed payload,
// returning any unconsumed bytes. nested guards against a reliable
// frame wrapping another reliable frame.
func decodeBinaryEnvelope(b []byte, nested bool) (Envelope, []byte, error) {
	if len(b) < binHeader-1 {
		return Envelope{}, nil, fmt.Errorf("truncated envelope header (%d bytes)", len(b))
	}
	kind := Kind(b[0])
	env := Envelope{
		From: int(binary.BigEndian.Uint32(b[1:5])),
		To:   int(binary.BigEndian.Uint32(b[5:9])),
	}
	b = b[9:]
	if kind == KindInvalid || kind >= kindCount {
		return Envelope{}, nil, fmt.Errorf("unknown message kind %d", byte(kind))
	}
	if kind == KindReliable {
		if nested {
			return Envelope{}, nil, fmt.Errorf("reliable frame nested inside a reliable frame")
		}
		return decodeReliablePayload(env, b)
	}
	if kind == KindRosterUpdate {
		return decodeRosterPayload(env, b)
	}
	want := binPayloadSize[kind]
	if len(b) < want {
		return Envelope{}, nil, fmt.Errorf("truncated %s payload (%d bytes, want %d)", kind, len(b), want)
	}
	round := int(binary.BigEndian.Uint32(b[0:4]))
	switch kind {
	case KindCost:
		env.Msg = core.CostReport{Round: round, From: env.From, Cost: getFloat(b[4:12])}
	case KindCoordinate:
		env.Msg = core.Coordinate{
			Round:      round,
			Straggler:  int(binary.BigEndian.Uint32(b[4:8])),
			GlobalCost: getFloat(b[8:16]),
			Alpha:      getFloat(b[16:24]),
		}
	case KindDecision:
		env.Msg = core.DecisionReport{Round: round, From: env.From, Next: getFloat(b[4:12])}
	case KindAssign:
		env.Msg = core.StragglerAssign{Round: round, To: env.To, Next: getFloat(b[4:12])}
	case KindShare:
		env.Msg = core.PeerShare{
			Round:      round,
			From:       env.From,
			Cost:       getFloat(b[4:12]),
			LocalAlpha: getFloat(b[12:20]),
			Renorm:     getFloat(b[20:28]),
		}
	case KindPeerDecision:
		env.Msg = core.PeerDecision{Round: round, From: env.From, To: env.To, Next: getFloat(b[4:12])}
	case KindEvict:
		env.Msg = core.PeerEvict{Round: round, From: env.From, Evicted: int(binary.BigEndian.Uint32(b[4:8]))}
	case KindJoin:
		env.Msg = core.JoinRequest{Round: round, From: env.From}
	case KindAggregate:
		env.Msg = core.PeerAggregate{
			Round:     round,
			From:      env.From,
			Epoch:     binary.BigEndian.Uint64(b[4:12]),
			Down:      b[12]&1 != 0,
			Count:     int(binary.BigEndian.Uint32(b[13:17])),
			Straggler: int(binary.BigEndian.Uint32(b[17:21])),
			MaxCost:   getFloat(b[21:29]),
			MinAlpha:  getFloat(b[29:37]),
			MaxRenorm: getFloat(b[37:45]),
		}
	}
	return env, b[want:], nil
}

// decodeRosterPayload parses the variable-length roster-update payload.
// The member count is validated against the remaining bytes before any
// allocation, so a hostile count cannot balloon memory.
func decodeRosterPayload(env Envelope, b []byte) (Envelope, []byte, error) {
	if len(b) < binRosterFixed {
		return Envelope{}, nil, fmt.Errorf("truncated roster-update payload (%d bytes, want %d)", len(b), binRosterFixed)
	}
	m := core.RosterUpdate{
		Round:   int(binary.BigEndian.Uint32(b[0:4])),
		From:    env.From,
		Version: binary.BigEndian.Uint64(b[4:12]),
		Join:    int(binary.BigEndian.Uint32(b[12:16])),
		Weight:  getFloat(b[16:24]),
		Alpha:   getFloat(b[24:32]),
	}
	count := int(binary.BigEndian.Uint32(b[32:36]))
	b = b[binRosterFixed:]
	if count > len(b)/4 {
		return Envelope{}, nil, fmt.Errorf("roster-update member count %d exceeds payload (%d bytes left)", count, len(b))
	}
	if count > 0 {
		m.Members = make([]int, count)
		for i := range m.Members {
			m.Members[i] = int(binary.BigEndian.Uint32(b[4*i : 4*i+4]))
		}
	}
	env.Msg = m
	return env, b[4*count:], nil
}

func decodeReliablePayload(env Envelope, b []byte) (Envelope, []byte, error) {
	if len(b) < 9 {
		return Envelope{}, nil, fmt.Errorf("truncated reliable payload (%d bytes)", len(b))
	}
	frame := ReliableFrame{Seq: binary.BigEndian.Uint64(b[0:8])}
	flags := b[8]
	frame.Ack = flags&1 != 0
	b = b[9:]
	if flags&2 != 0 {
		inner, rest, err := decodeBinaryEnvelope(b, true)
		if err != nil {
			return Envelope{}, nil, fmt.Errorf("reliable data: %w", err)
		}
		frame.Data = &inner
		b = rest
	}
	env.Msg = frame
	return env, b, nil
}

func asUint32(field string, v int) (uint32, error) {
	if v < 0 || v > math.MaxUint32 {
		return 0, fmt.Errorf("%s %d outside uint32 range", field, v)
	}
	return uint32(v), nil
}

func appendRound(dst []byte, round int) ([]byte, error) {
	r, err := asUint32("round", round)
	if err != nil {
		return dst, err
	}
	return binary.BigEndian.AppendUint32(dst, r), nil
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
}

func getFloat(b []byte) float64 {
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}
