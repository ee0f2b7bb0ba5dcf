package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"dolbie/internal/core"
	"dolbie/internal/wire"
)

// bindingRow is one payload with a consistent envelope: the kind that
// carries it, the routing fields it repeats from the envelope, its
// binary frame size (length prefix included), and the round the fault
// layers count it in.
type bindingRow struct {
	name         string
	kind         wire.Kind
	msg          any
	from, to     int
	repeatsFrom  bool
	repeatsTo    bool
	binSize      int
	round        int
	hasRound     bool
	reliableData bool // msg may be wrapped in a reliable data frame
}

func (r bindingRow) env() Envelope { return wire.NewEnvelope(r.from, r.to, r.msg) }

func bindingRows() []bindingRow {
	return []bindingRow{
		{"cost", wire.KindCost, core.CostReport{Round: 7, From: 2, Cost: 1.5}, 2, 8, true, false, 26, 7, true, true},
		{"coordinate", wire.KindCoordinate, core.Coordinate{Round: 7, GlobalCost: 3.25, Alpha: 0.125, Straggler: 4}, 8, 2, false, false, 38, 7, true, true},
		{"decision", wire.KindDecision, core.DecisionReport{Round: 7, From: 2, Next: 0.2}, 2, 8, true, false, 26, 7, true, true},
		{"assign", wire.KindAssign, core.StragglerAssign{Round: 7, To: 4, Next: 0.4}, 8, 4, false, true, 26, 7, true, true},
		{"share", wire.KindShare, core.PeerShare{Round: 9, From: 3, Cost: 0.75, LocalAlpha: 0.01, Renorm: 1.25}, 3, 1, true, false, 42, 9, true, true},
		{"peer-decision", wire.KindPeerDecision, core.PeerDecision{Round: 7, From: 2, To: 4, Next: 0.3}, 2, 4, true, true, 26, 7, true, true},
		{"evict", wire.KindEvict, core.PeerEvict{Round: 7, From: 2, Evicted: 5}, 2, 4, true, false, 22, 7, true, true},
		{"join", wire.KindJoin, core.JoinRequest{Round: 4, From: 9}, 9, 0, true, false, 18, 4, true, true},
		// A roster update announced in round 10 applies at round 12.
		{"roster-update", wire.KindRosterUpdate, core.RosterUpdate{Version: 5, Round: 12, From: 0, Join: 8, Weight: 0.015625, Alpha: 0.046875}, 0, 2, true, false, 50, 10, true, true},
		{"roster-grant", wire.KindRosterUpdate, core.RosterUpdate{Version: 5, Round: 12, From: 0, Join: 8, Weight: 0.015625, Alpha: 0.046875, Members: []int{0, 1, 2, 8}}, 0, 8, true, false, 66, 10, true, true},
		{"roster-denial", wire.KindRosterUpdate, core.RosterUpdate{From: 0, Join: 8}, 0, 8, true, false, 50, 0, false, true},
		{"aggregate", wire.KindAggregate, core.PeerAggregate{Round: 9, From: 3, Epoch: 4, Down: true, Count: 5, MaxCost: 2.5, Straggler: 2, MinAlpha: 0.125, MaxRenorm: 1.5}, 3, 1, true, false, 59, 9, true, true},
		{"reliable-ack", wire.KindReliable, wire.ReliableFrame{Seq: 42, Ack: true}, 3, 1, false, false, 23, 0, false, false},
		{"reliable-empty", wire.KindReliable, wire.ReliableFrame{Seq: 43}, 3, 1, false, false, 23, 0, false, false},
	}
}

// encodes reports whether WriteFrame and FrameSize both accept env under
// codec, failing the test when they disagree on acceptance or size, or
// when an accepted frame does not read back as env.
func encodes(t *testing.T, codec wire.Codec, env Envelope) (int, bool) {
	t.Helper()
	var buf bytes.Buffer
	n, werr := wire.WriteFrame(&buf, codec, env)
	size, serr := wire.FrameSize(codec, env)
	if (werr == nil) != (serr == nil) {
		t.Fatalf("%s %v: WriteFrame err %v, FrameSize err %v", codec.Name(), env, werr, serr)
	}
	if werr != nil {
		return 0, false
	}
	if n != size || n != buf.Len() {
		t.Fatalf("%s %v: WriteFrame %d bytes (wrote %d), FrameSize %d", codec.Name(), env, n, buf.Len(), size)
	}
	got, rn, err := wire.ReadFrame(&buf, codec)
	if err != nil || rn != n || !reflect.DeepEqual(got, env) {
		t.Fatalf("%s %v: read back %v (%d bytes, err %v)", codec.Name(), env, got, rn, err)
	}
	return n, true
}

// TestWireBinding pins what binds a payload to its envelope under both
// codecs: every payload's kind, the routing fields it repeats matching
// the envelope's, never a nil payload, and a reliable data frame around
// it only when it is itself a protocol message. It also pins the round
// the chaos transport and the virtual-time runner count each message
// in, bare, wrapped in a reliable data frame, and acknowledged.
func TestWireBinding(t *testing.T) {
	codecs := []wire.Codec{wire.Binary, wire.JSON}
	roundOf := wire.Round
	for _, codec := range codecs {
		if _, ok := encodes(t, codec, wire.NewEnvelope(3, 1, nil)); ok {
			t.Errorf("%s: nil payload accepted", codec.Name())
		}
	}
	for _, r := range bindingRows() {
		if k := r.env().Kind(); k != r.kind {
			t.Errorf("%s payload has kind %v, want %v", r.name, k, r.kind)
		}
		for _, codec := range codecs {
			n, ok := encodes(t, codec, r.env())
			if !ok {
				t.Errorf("%s: %s refused", codec.Name(), r.name)
			}
			if ok && codec == wire.Binary && n != r.binSize {
				t.Errorf("binary %s frame is %d bytes, want %d", r.name, n, r.binSize)
			}
			from, to := r.env(), r.env()
			from.From++
			to.To++
			if _, ok := encodes(t, codec, from); ok == r.repeatsFrom {
				t.Errorf("%s: %s with a different envelope From: accepted %v", codec.Name(), r.name, ok)
			}
			if _, ok := encodes(t, codec, to); ok == r.repeatsTo {
				t.Errorf("%s: %s with a different envelope To: accepted %v", codec.Name(), r.name, ok)
			}

			// Wrapped in a reliable data frame: accepted when the
			// wrapped envelope is a consistent protocol message.
			for _, inner := range []Envelope{r.env(), from, to} {
				inner := inner
				wrapped := wire.NewEnvelope(3, 1, wire.ReliableFrame{Seq: 7, Data: &inner})
				if k := wrapped.Kind(); k != wire.KindReliable {
					t.Errorf("reliable data frame around %s has kind %v", r.name, k)
				}
				want := r.reliableData && (inner.From == r.from || !r.repeatsFrom) && (inner.To == r.to || !r.repeatsTo)
				n, ok := encodes(t, codec, wrapped)
				if ok != want {
					t.Errorf("%s: reliable data frame around %s (%d->%d): accepted %v, want %v", codec.Name(), r.name, inner.From, inner.To, ok, want)
				}
				if ok && codec == wire.Binary && inner.From == r.from && inner.To == r.to && n != r.binSize+18 {
					t.Errorf("binary reliable data frame around %s is %d bytes, want %d", r.name, n, r.binSize+18)
				}
			}
			nilData := &Envelope{From: r.from, To: r.to}
			if _, ok := encodes(t, codec, wire.NewEnvelope(3, 1, wire.ReliableFrame{Seq: 7, Data: nilData})); ok {
				t.Errorf("%s: reliable data frame around a nil payload accepted", codec.Name())
			}
		}

		// Rounds, bare, wrapped, and acknowledged.
		env := r.env()
		if round, ok := roundOf(env); round != r.round || ok != r.hasRound {
			t.Errorf("round of bare %s = %d, %v; want %d, %v", r.name, round, ok, r.round, r.hasRound)
		}
		if r.reliableData {
			wrapped := wire.NewEnvelope(r.from, r.to, wire.ReliableFrame{Seq: 7, Data: &env})
			if round, ok := roundOf(wrapped); round != r.round || ok != r.hasRound {
				t.Errorf("round of wrapped %s = %d, %v; want %d, %v", r.name, round, ok, r.round, r.hasRound)
			}
		}
	}
	ack := wire.NewEnvelope(1, 3, wire.ReliableFrame{Seq: 7, Ack: true})
	if round, ok := roundOf(ack); ok || round != 0 {
		t.Errorf("round of an ack = %d, %v; want none", round, ok)
	}
	if round, ok := roundOf(wire.NewEnvelope(1, 3, nil)); ok || round != 0 {
		t.Errorf("round of a nil payload = %d, %v; want none", round, ok)
	}
}
