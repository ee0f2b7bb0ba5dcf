package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzCorpus seeds a fuzzer with complete valid frames of every kind
// (length prefix included), plus classic corruption shapes: truncation,
// oversize declarations, and cross-codec bodies.
func fuzzCorpus(f *testing.F, c Codec) {
	for _, env := range allKindsEnvelopes() {
		var buf bytes.Buffer
		if _, err := WriteFrame(&buf, c, env); err != nil {
			f.Fatal(err)
		}
		frame := buf.Bytes()
		f.Add(append([]byte{}, frame...))
		f.Add(append([]byte{}, frame[:len(frame)-1]...)) // truncated body
		f.Add(append([]byte{}, frame[:lenPrefix]...))    // header only
	}
	var oversize [lenPrefix]byte
	binary.BigEndian.PutUint32(oversize[:], MaxFrame+1)
	f.Add(oversize[:])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0xff})                                   // unknown kind / bad leading byte
	f.Add([]byte{0, 0, 0, 2, '{', '}'})                               // JSON body under either codec
	f.Add([]byte{0, 0, 0, 5, binaryVersion, byte(KindCost), 0, 0, 0}) // truncated header
}

// fuzzReadFrame is the shared property: ReadFrame over arbitrary bytes
// must never panic, and anything it decodes must re-encode, with the
// re-encoded frame a fixed point of decoding and encoding again. The
// binary decoder rebuilds routing from the frame header and the JSON
// decoder refuses payload routing that disagrees with the envelope's,
// so every envelope either accepts passes the encoder's check.
func fuzzReadFrame(t *testing.T, c Codec, data []byte) {
	env, n, err := ReadFrame(bytes.NewReader(data), c)
	if err != nil {
		return
	}
	if n < lenPrefix || n > len(data) {
		t.Fatalf("ReadFrame consumed %d of %d bytes", n, len(data))
	}
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, c, env); err != nil {
		t.Fatalf("decoded envelope %+v does not re-encode: %v", env, err)
	}
	frame := append([]byte{}, buf.Bytes()...)
	again, _, err := ReadFrame(&buf, c)
	if err != nil {
		t.Fatalf("re-encoded envelope does not decode: %v", err)
	}
	var buf2 bytes.Buffer
	if _, err := WriteFrame(&buf2, c, again); err != nil {
		t.Fatalf("twice-decoded envelope %+v does not re-encode: %v", again, err)
	}
	// Frames are compared byte-for-byte rather than the envelopes with
	// DeepEqual: a NaN payload is a legitimate fixed point of the codec
	// but NaN != NaN under any structural comparison.
	if !bytes.Equal(frame, buf2.Bytes()) {
		t.Fatalf("re-encode round trip changed the frame:\n got %x\nwant %x", buf2.Bytes(), frame)
	}
}

// FuzzDecodeFrameBinary checks that the binary frame decoder survives
// malformed, truncated, and oversized input: errors, never panics, and
// only well-formed envelopes. Runs the seed corpus under plain
// `go test`; explore with `go test -fuzz=FuzzDecodeFrameBinary`.
func FuzzDecodeFrameBinary(f *testing.F) {
	fuzzCorpus(f, Binary)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzReadFrame(t, Binary, data)
	})
}

// FuzzDecodeFrameJSON is FuzzDecodeFrameBinary for the JSON framing,
// seeded also with a frame whose payload names another sender than its
// envelope, and with a MaxFrame body that grows past the limit when the
// fields it omits are written back.
func FuzzDecodeFrameJSON(f *testing.F) {
	fuzzCorpus(f, JSON)
	for _, body := range [][]byte{[]byte(misroutedJSONFrame), growsOnReencodeJSON()} {
		f.Add(append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzReadFrame(t, JSON, data)
	})
}

// growsOnReencodeJSON is a JSON body of exactly MaxFrame bytes: a roster
// update that states only its kind and a long member list, so writing
// back the routing and zero fields it omits takes more than MaxFrame.
func growsOnReencodeJSON() []byte {
	const head, tail = `{"kind":"roster-update","payload":{"members":[1`, `]}}`
	body := []byte(head)
	for len(body)+len(tail) < MaxFrame {
		body = append(body, ",1"...)
	}
	return append(body, tail...)
}
