package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"dolbie/internal/core"
)

// allKindsEnvelopes returns one consistent envelope per encodable kind,
// including a reliable ack and a reliable data frame wrapping a share.
func allKindsEnvelopes() []Envelope {
	share := NewEnvelope(3, 1, core.PeerShare{Round: 9, From: 3, Cost: 0.75, LocalAlpha: 0.01})
	return []Envelope{
		NewEnvelope(2, 8, core.CostReport{Round: 7, From: 2, Cost: 1.5}),
		NewEnvelope(8, 2, core.Coordinate{Round: 7, GlobalCost: 3.25, Alpha: 0.125, Straggler: 4}),
		NewEnvelope(2, 8, core.DecisionReport{Round: 7, From: 2, Next: 0.2}),
		NewEnvelope(8, 4, core.StragglerAssign{Round: 7, To: 4, Next: 0.4}),
		share,
		NewEnvelope(2, 4, core.PeerDecision{Round: 7, From: 2, To: 4, Next: 0.3}),
		NewEnvelope(2, 4, core.PeerEvict{Round: 7, From: 2, Evicted: 5}),
		NewEnvelope(9, 0, core.JoinRequest{Round: 4, From: 9}),
		NewEnvelope(0, 2, core.RosterUpdate{Version: 5, Round: 12, From: 0, Join: 8, Weight: 0.015625, Alpha: 0.046875}),
		NewEnvelope(0, 8, core.RosterUpdate{Version: 5, Round: 12, From: 0, Join: 8, Weight: 0.015625, Alpha: 0.046875, Members: []int{0, 1, 2, 8}}),
		NewEnvelope(3, 1, core.PeerAggregate{Round: 9, From: 3, Epoch: 4, Down: true, Count: 5, MaxCost: 2.5, Straggler: 2, MinAlpha: 0.125, MaxRenorm: 1.5}),
		NewEnvelope(3, 1, ReliableFrame{Seq: 42, Ack: true}),
		NewEnvelope(3, 1, ReliableFrame{Seq: 43, Data: &share}),
	}
}

func allCodecs() []Codec { return []Codec{JSON, Binary} }

func TestKindStringRoundTrip(t *testing.T) {
	for k := KindCost; k < kindCount; k++ {
		var got Kind
		if err := got.UnmarshalText([]byte(k.String())); err != nil || got != k {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, bad := range []string{"invalid", "bogus"} {
		if err := new(Kind).UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText accepted %q", bad)
		}
	}
	if s := Kind(200).String(); !strings.Contains(s, "200") {
		t.Errorf("out-of-range Kind.String() = %q", s)
	}
}

func TestCodecRegistry(t *testing.T) {
	names := Names()
	if len(names) != 2 || names[0] != "binary" || names[1] != "json" {
		t.Fatalf("Names() = %v, want [binary json]", names)
	}
	for _, name := range names {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if c.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, c.Name())
		}
	}
	if _, err := ByName("protobuf"); err == nil {
		t.Error("ByName accepted an unregistered codec")
	}
}

// TestRoundTripAllKinds drives every protocol message through the full
// frame path of both codecs: the decoded envelope must equal the
// original, and the reported sizes must agree everywhere (WriteFrame
// return, bytes on the wire, ReadFrame return, FrameSize).
func TestRoundTripAllKinds(t *testing.T) {
	for _, codec := range allCodecs() {
		for _, env := range allKindsEnvelopes() {
			var buf bytes.Buffer
			wn, err := WriteFrame(&buf, codec, env)
			if err != nil {
				t.Fatalf("%s WriteFrame(%s): %v", codec.Name(), env.Kind(), err)
			}
			if wn != buf.Len() {
				t.Errorf("%s %s: WriteFrame reported %d bytes, wrote %d", codec.Name(), env.Kind(), wn, buf.Len())
			}
			size, err := FrameSize(codec, env)
			if err != nil {
				t.Fatalf("%s FrameSize(%s): %v", codec.Name(), env.Kind(), err)
			}
			if size != wn {
				t.Errorf("%s %s: FrameSize = %d, WriteFrame = %d", codec.Name(), env.Kind(), size, wn)
			}
			got, rn, err := ReadFrame(&buf, codec)
			if err != nil {
				t.Fatalf("%s ReadFrame(%s): %v", codec.Name(), env.Kind(), err)
			}
			if rn != wn {
				t.Errorf("%s %s: ReadFrame consumed %d bytes, frame is %d", codec.Name(), env.Kind(), rn, wn)
			}
			if !reflect.DeepEqual(got, env) {
				t.Errorf("%s %s round trip:\n got %+v\nwant %+v", codec.Name(), env.Kind(), got, env)
			}
		}
	}
}

// TestBinarySmallerThanJSON pins the point of the binary codec: every
// protocol frame must be a small fraction of its JSON size.
func TestBinarySmallerThanJSON(t *testing.T) {
	for _, env := range allKindsEnvelopes() {
		jsonN, err := FrameSize(JSON, env)
		if err != nil {
			t.Fatal(err)
		}
		binN, err := FrameSize(Binary, env)
		if err != nil {
			t.Fatal(err)
		}
		if binN*2 >= jsonN {
			t.Errorf("%s: binary frame %d B not < half of json %d B", env.Kind(), binN, jsonN)
		}
	}
}

// TestCodecMismatchErrors checks the cross-codec failure mode: each
// codec must reject the other's bodies with an error that names the
// peer's codec instead of producing garbage scalars.
func TestCodecMismatchErrors(t *testing.T) {
	env := NewEnvelope(1, 2, core.CostReport{Round: 3, From: 1, Cost: 0.5})
	jsonBody, err := JSON.AppendBody(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	binBody, err := Binary.AppendBody(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Binary.DecodeBody(jsonBody); err == nil || !strings.Contains(err.Error(), "json codec") {
		t.Errorf("binary decode of a JSON body: err = %v, want mention of the json codec", err)
	}
	if _, err := JSON.DecodeBody(binBody); err == nil || !strings.Contains(err.Error(), "binary codec") {
		t.Errorf("json decode of a binary body: err = %v, want mention of the binary codec", err)
	}
}

// TestReadFrameRejectsOversizeWithoutBodyRead feeds a header declaring
// a body over MaxFrame from a reader that fails the test if any body
// byte is requested: the guard must fire on the declared length alone.
func TestReadFrameRejectsOversizeWithoutBodyRead(t *testing.T) {
	var hdr [lenPrefix]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	r := &headerOnlyReader{t: t, hdr: hdr[:]}
	for _, codec := range allCodecs() {
		r.off = 0
		if _, _, err := ReadFrame(r, codec); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Errorf("%s: oversize frame err = %v, want limit error", codec.Name(), err)
		}
	}
}

// headerOnlyReader serves a 4-byte header and fails the test on any
// further Read.
type headerOnlyReader struct {
	t   *testing.T
	hdr []byte
	off int
}

func (r *headerOnlyReader) Read(p []byte) (int, error) {
	if r.off >= len(r.hdr) {
		r.t.Fatal("ReadFrame read past the length prefix of an oversized frame")
	}
	n := copy(p, r.hdr[r.off:])
	r.off += n
	return n, nil
}

func TestWriteFrameRejectsInconsistentEnvelopes(t *testing.T) {
	share := NewEnvelope(3, 1, core.PeerShare{Round: 1, From: 3, Cost: 1, LocalAlpha: 0.1})
	nestedReliable := NewEnvelope(0, 1, ReliableFrame{Seq: 2})
	bad := []struct {
		name string
		env  Envelope
	}{
		{"nil payload", NewEnvelope(1, 2, nil)},
		{"payload of no kind", NewEnvelope(1, 2, 1.5)},
		{"From mismatch", NewEnvelope(1, 2, core.CostReport{Round: 1, From: 7})},
		{"To mismatch", NewEnvelope(1, 2, core.StragglerAssign{Round: 1, To: 7})},
		{"peer-decision routing mismatch", NewEnvelope(1, 2, core.PeerDecision{Round: 1, From: 1, To: 9})},
		{"nested reliable", NewEnvelope(0, 1, ReliableFrame{Seq: 1, Data: &nestedReliable})},
		{"nested inconsistent", NewEnvelope(0, 1, ReliableFrame{Seq: 1, Data: &Envelope{From: 9, To: 1, Msg: share.Msg}})},
	}
	for _, codec := range allCodecs() {
		for _, tc := range bad {
			if _, err := WriteFrame(&bytes.Buffer{}, codec, tc.env); err == nil {
				t.Errorf("%s: WriteFrame accepted %s", codec.Name(), tc.name)
			}
			if _, err := FrameSize(codec, tc.env); err == nil {
				t.Errorf("%s: FrameSize accepted %s", codec.Name(), tc.name)
			}
		}
	}
}

func TestBinaryRejectsOutOfRangeRouting(t *testing.T) {
	bad := []Envelope{
		NewEnvelope(-1, 2, core.CostReport{Round: 1, From: -1, Cost: 1}),
		NewEnvelope(1, -2, core.CostReport{Round: 1, From: 1, Cost: 1}),
		NewEnvelope(1, 2, core.CostReport{Round: -1, From: 1, Cost: 1}),
		NewEnvelope(1, 2, core.Coordinate{Round: 1, Straggler: math.MaxUint32 + 1}),
	}
	for _, env := range bad {
		if _, err := Binary.AppendBody(nil, env); err == nil {
			t.Errorf("binary AppendBody accepted out-of-range fields in %+v", env)
		}
	}
}

// TestBinaryDecodeTruncations slices a valid body at every length and
// requires a clean error (not a panic, not a bogus success) for each
// strict prefix.
func TestBinaryDecodeTruncations(t *testing.T) {
	for _, env := range allKindsEnvelopes() {
		body, err := Binary.AppendBody(nil, env)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(body); cut++ {
			if _, err := Binary.DecodeBody(body[:cut]); err == nil {
				t.Errorf("%s: decode of %d/%d-byte prefix succeeded", env.Kind(), cut, len(body))
			}
		}
		if _, err := Binary.DecodeBody(append(append([]byte{}, body...), 0xff)); err == nil {
			t.Errorf("%s: decode with a trailing byte succeeded", env.Kind())
		}
	}
}

func TestJSONDecodeMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("{"),
		[]byte(`{"kind":"bogus","from":0,"to":1,"payload":{}}`),
		[]byte(`{"kind":"cost","from":0,"to":1,"payload":"not-an-object"}`),
	}
	for _, body := range cases {
		if _, err := JSON.DecodeBody(body); err == nil {
			t.Errorf("JSON.DecodeBody(%q) succeeded", body)
		}
	}
}

// TestDecodersRejectUnknownKinds requires both decoders to refuse a
// frame whose kind names no payload type: the invalid zero kind and
// kinds past the last, as bytes on the binary wire (bare and inside a
// reliable data frame) and as numbers in the JSON framing, and in JSON
// also a missing or null kind, the name "invalid" and unknown names.
func TestDecodersRejectUnknownKinds(t *testing.T) {
	cost := NewEnvelope(2, 8, core.CostReport{Round: 7, From: 2, Cost: 1.5})
	bare, err := Binary.AppendBody(nil, cost)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := Binary.AppendBody(nil, NewEnvelope(2, 8, ReliableFrame{Seq: 1, Data: &cost}))
	if err != nil {
		t.Fatal(err)
	}
	frames := []struct {
		body []byte
		at   int // offset of the kind byte
	}{{bare, 1}, {wrapped, binHeader + 9}}
	const payload = `"from":2,"to":8,"payload":{"round":7,"from":2,"cost":1.5}`
	jsonKinds := []string{`{` + payload + `}`, `{"kind":null,` + payload + `}`}
	for _, k := range []byte{byte(KindInvalid), byte(kindCount), 99, 255} {
		for _, f := range frames {
			body := append([]byte{}, f.body...)
			body[f.at] = k
			if env, err := Binary.DecodeBody(body); err == nil {
				t.Errorf("binary: kind byte %d at offset %d decoded as %+v", k, f.at, env)
			}
		}
		jsonKinds = append(jsonKinds, fmt.Sprintf(`{"kind":%d,%s}`, k, payload))
	}
	for _, name := range []string{"invalid", "bogus", Kind(kindCount).String()} {
		jsonKinds = append(jsonKinds,
			`{"kind":"`+name+`",`+payload+`}`,
			`{"kind":"reliable","from":2,"to":8,"payload":{"seq":1,"ack":false,"data":{"kind":"`+name+`",`+payload+`}}}`)
	}
	for _, body := range jsonKinds {
		if env, err := JSON.DecodeBody([]byte(body)); err == nil {
			t.Errorf("json: %s decoded as %+v", body, env)
		}
	}
}

// misroutedJSONFrame is a JSON body whose envelope says node 0 sent it
// while its cost report says node 5 did.
const misroutedJSONFrame = `{"kind":"cost","from":0,"to":8,"payload":{"round":1,"from":5,"cost":1}}`

// TestJSONDecodeRejectsInconsistentRouting requires the JSON decoder to
// refuse what the encoder refuses: a payload whose routing fields
// disagree with its envelope's, bare or inside a reliable data frame.
func TestJSONDecodeRejectsInconsistentRouting(t *testing.T) {
	for _, body := range []string{
		misroutedJSONFrame,
		`{"kind":"assign","from":8,"to":2,"payload":{"round":1,"to":4,"next":0.5}}`,
		`{"kind":"reliable","from":0,"to":8,"payload":{"seq":1,"ack":false,"data":` + misroutedJSONFrame + `}}`,
		`{"kind":"reliable","from":0,"to":8,"payload":{"seq":1,"ack":false,"data":{"kind":"reliable","from":0,"to":8,"payload":{"seq":2,"ack":true}}}}`,
	} {
		if env, err := JSON.DecodeBody([]byte(body)); err == nil {
			t.Errorf("JSON.DecodeBody(%s) = %+v, want a routing error", body, env)
		}
	}
}

func BenchmarkAppendBodyBinary(b *testing.B) { benchAppendBody(b, Binary) }
func BenchmarkAppendBodyJSON(b *testing.B)   { benchAppendBody(b, JSON) }

func benchAppendBody(b *testing.B, c Codec) {
	env := NewEnvelope(3, 1, core.PeerShare{Round: 9, From: 3, Cost: 0.75, LocalAlpha: 0.01})
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = c.AppendBody(buf[:0], env)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameSizeBinary(b *testing.B) { benchFrameSize(b, Binary) }
func BenchmarkFrameSizeJSON(b *testing.B)   { benchFrameSize(b, JSON) }

func benchFrameSize(b *testing.B, c Codec) {
	env := NewEnvelope(8, 2, core.Coordinate{Round: 7, GlobalCost: 3.25, Alpha: 0.125, Straggler: 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FrameSize(c, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameRoundTripBinary(b *testing.B) { benchFrameRoundTrip(b, Binary) }
func BenchmarkFrameRoundTripJSON(b *testing.B)   { benchFrameRoundTrip(b, JSON) }

func benchFrameRoundTrip(b *testing.B, c Codec) {
	env := NewEnvelope(2, 8, core.CostReport{Round: 7, From: 2, Cost: 1.5})
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := WriteFrame(&buf, c, env); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ReadFrame(&buf, c); err != nil {
			b.Fatal(err)
		}
	}
}
