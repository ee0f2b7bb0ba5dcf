package cluster

import (
	"context"
	"testing"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/wire"
)

func TestWithInboxBuffer(t *testing.T) {
	net := NewMemNet(WithInboxBuffer(2))
	a := net.Node(0)
	net.Node(1)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	env := wire.NewEnvelope(0, 1, core.CostReport{Round: 1})
	// Two sends fill the buffer; the third blocks until the context
	// deadline because nobody drains the inbox.
	if _, err := a.Send(ctx, 1, env); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Send(ctx, 1, env); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Send(ctx, 1, env); err == nil {
		t.Error("third send into a full 2-slot inbox should block until deadline")
	}
	// Non-positive buffer values are ignored (default stays).
	net2 := NewMemNet(WithInboxBuffer(0))
	if net2.buffer != 1024 {
		t.Errorf("zero buffer should keep default, got %d", net2.buffer)
	}
}

func TestSyntheticSource(t *testing.T) {
	src, err := NewSyntheticSource(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewSyntheticSource(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 10; round++ {
		c1, f1, err := src.Observe(round, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		c2, _, err := twin.Observe(round, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if c1 != c2 {
			t.Fatal("same (id, seed) must reproduce the same costs")
		}
		if c1 <= 0 {
			t.Errorf("round %d: cost %v must be positive", round, c1)
		}
		if f1.Eval(1) <= f1.Eval(0) {
			t.Errorf("round %d: cost function not increasing", round)
		}
	}
	other, err := NewSyntheticSource(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	c1, _, _ := src.Observe(11, 0.25)
	c2, _, _ := other.Observe(11, 0.25)
	if c1 == c2 {
		t.Error("different worker ids should produce different cost processes")
	}
}

func TestMeterClose(t *testing.T) {
	net := NewMemNet()
	m := NewMeter(net.Node(0))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Recv(context.Background()); err == nil {
		t.Error("recv after close should error")
	}
}

func TestTCPSendRedialsAfterPeerRestart(t *testing.T) {
	a, err := ListenTCP(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close() //nolint:errcheck // test teardown
	b, err := ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	registry := map[int]string{0: a.Addr(), 1: b.Addr()}
	a.SetRegistry(registry)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	env := wire.NewEnvelope(0, 1, core.CostReport{Round: 1, From: 0})
	if _, err := a.Send(ctx, 1, env); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Recv(ctx); err != nil {
		t.Fatal(err)
	}

	// Kill b and restart it on the same address: a's cached connection is
	// now dead. The first Send may fail (detecting the dead conn and
	// dropping it); a subsequent Send must redial and deliver.
	addr := b.Addr()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := ListenTCP(1, addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	defer b2.Close() //nolint:errcheck // test teardown
	b2.SetRegistry(registry)

	delivered := false
	for attempt := 0; attempt < 20 && !delivered; attempt++ {
		if _, err := a.Send(ctx, 1, env); err != nil {
			continue // dead conn detected and dropped; next attempt redials
		}
		recvCtx, recvCancel := context.WithTimeout(ctx, 300*time.Millisecond)
		if _, _, err := b2.Recv(recvCtx); err == nil {
			delivered = true
		}
		recvCancel()
	}
	if !delivered {
		t.Error("send never succeeded after peer restart")
	}
}
