package cluster

import (
	"context"
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/wire"
)

// waitFrameErr polls FrameErrors until the node records at least one
// decode failure or the deadline passes.
func waitFrameErr(t *testing.T, node *TCPNode) error {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if n, err := node.FrameErrors(); n > 0 {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("node never recorded a frame error")
	return nil
}

// TestTCPRejectsOversizedFrameDeclaration sends only a length prefix
// declaring a body beyond the frame limit — no body bytes at all. The
// node must reject the frame from the declaration alone (nothing else
// ever arrives to read) and drop the connection.
func TestTCPRejectsOversizedFrameDeclaration(t *testing.T) {
	node, err := ListenTCP(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close() //nolint:errcheck // test teardown

	conn, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // test teardown

	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], wire.MaxFrame+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	ferr := waitFrameErr(t, node)
	if ferr == nil || !strings.Contains(ferr.Error(), "exceeds limit") {
		t.Fatalf("frame error = %v, want oversize limit error", ferr)
	}
	// The reader must have dropped the connection rather than waiting
	// for (or worse, allocating) the declared megabyte body.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil {
		t.Fatal("connection still open after oversized frame declaration")
	}
	// A well-framed peer connecting afterwards is unaffected.
	peer, err := ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close() //nolint:errcheck // test teardown
	peer.SetRegistry(map[int]string{0: node.Addr()})
	env := wire.NewEnvelope(1, 0, core.CostReport{Round: 1, From: 1, Cost: 2.5})
	if _, err := peer.Send(context.Background(), 0, env); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, _, err := node.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, cost := got.Msg.(core.CostReport); !cost {
		t.Fatalf("got %v frame after recovery, want cost", got.Kind())
	}
}

// TestTCPJSONRejectsMisroutedFrame writes one JSON frame whose cost
// report names a different sender than its envelope. A JSON-codec node
// must count it as a frame error, deliver nothing, and drop the
// connection, as for any malformed frame.
func TestTCPJSONRejectsMisroutedFrame(t *testing.T) {
	node, err := ListenTCP(8, "127.0.0.1:0", WithTCPCodec(wire.JSON))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close() //nolint:errcheck // test teardown
	conn, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // test teardown

	body := []byte(`{"kind":"cost","from":0,"to":8,"payload":{"round":1,"from":5,"cost":1}}`)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	if _, err := conn.Write(append(frame, body...)); err != nil {
		t.Fatal(err)
	}
	if ferr := waitFrameErr(t, node); ferr == nil || !strings.Contains(ferr.Error(), "From") {
		t.Fatalf("frame error = %v, want a From routing mismatch", ferr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if env, _, err := node.Recv(ctx); err == nil {
		t.Fatalf("misrouted frame was delivered: %+v", env)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil {
		t.Fatal("connection still open after a misrouted frame")
	}
}

// TestTCPCodecMismatchDescriptiveError wires a binary-codec sender to a
// json-codec receiver (and the reverse): the receiver must surface a
// decode error that names the peer's codec instead of delivering a
// garbage envelope.
func TestTCPCodecMismatchDescriptiveError(t *testing.T) {
	cases := []struct {
		name     string
		sender   wire.Codec
		receiver wire.Codec
		want     string
	}{
		{"binary sender, json receiver", wire.Binary, wire.JSON, "binary codec"},
		{"json sender, binary receiver", wire.JSON, wire.Binary, "json codec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recvNode, err := ListenTCP(0, "127.0.0.1:0", WithTCPCodec(tc.receiver))
			if err != nil {
				t.Fatal(err)
			}
			defer recvNode.Close() //nolint:errcheck // test teardown
			sendNode, err := ListenTCP(1, "127.0.0.1:0", WithTCPCodec(tc.sender))
			if err != nil {
				t.Fatal(err)
			}
			defer sendNode.Close() //nolint:errcheck // test teardown
			sendNode.SetRegistry(map[int]string{0: recvNode.Addr()})

			env := wire.NewEnvelope(1, 0, core.CostReport{Round: 1, From: 1, Cost: 2.5})
			if _, err := sendNode.Send(context.Background(), 0, env); err != nil {
				t.Fatal(err)
			}
			ferr := waitFrameErr(t, recvNode)
			if ferr == nil || !strings.Contains(ferr.Error(), tc.want) {
				t.Fatalf("frame error = %v, want mention of the peer's %s", ferr, tc.want)
			}
			// Nothing must have been delivered to the protocol layer.
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			if env, _, err := recvNode.Recv(ctx); err == nil {
				t.Fatalf("mismatched frame was delivered: %+v", env)
			}
		})
	}
}

// TestMemNetFrameSizesMatchCodec pins MemNet's simulated metering to
// the real framing: bytes reported for a send must equal the wire-layer
// frame size under the hub's codec.
func TestMemNetFrameSizesMatchCodec(t *testing.T) {
	env := wire.NewEnvelope(0, 1, core.PeerShare{Round: 3, From: 0, Cost: 1.5, LocalAlpha: 0.2})
	for _, codec := range []wire.Codec{wire.JSON, wire.Binary} {
		hub := NewMemNet(WithCodec(codec))
		a, b := hub.Node(0), hub.Node(1)
		want, err := wire.FrameSize(codec, env)
		if err != nil {
			t.Fatal(err)
		}
		sent, err := a.Send(context.Background(), 1, env)
		if err != nil {
			t.Fatal(err)
		}
		if sent != want {
			t.Errorf("%s: Send reported %d bytes, FrameSize says %d", codec.Name(), sent, want)
		}
		_, recvd, err := b.Recv(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if recvd != want {
			t.Errorf("%s: Recv reported %d bytes, FrameSize says %d", codec.Name(), recvd, want)
		}
	}
}
