package cluster

import (
	"context"
	"testing"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/geo"
	"dolbie/internal/trace"
	"dolbie/internal/wire"
)

// TestChaosDelayModelPerLink checks the lazy per-link contract of
// ChaosConfig.DelayModel: the factory runs once per directed link on
// first traffic, the returned process is sampled exactly once per
// delivery attempt, and deliveries arrive intact. Timing is asserted
// through sample counts, never wall clocks, so the test is deterministic
// under load.
func TestChaosDelayModelPerLink(t *testing.T) {
	net := NewMemNet()
	factoryCalls := make(map[[2]int]int)
	recorders := make(map[int]*trace.Recorder)
	chaos := NewChaos(ChaosConfig{
		DelayModel: func(from, to int) trace.Process {
			factoryCalls[[2]int{from, to}]++
			r := &trace.Recorder{Inner: &trace.Constant{Value: 0}}
			recorders[from] = r
			return r
		},
	})
	tr2 := chaos.Wrap(2, net.Node(2))
	tr0, tr1 := net.Node(0), net.Node(1)
	defer tr2.Close()
	defer tr0.Close()
	defer tr1.Close()
	ctx := context.Background()

	send := func(tr Transport, from, round int) {
		t.Helper()
		env := wire.NewEnvelope(from, 2, core.PeerShare{Round: round, From: from, Cost: 1, LocalAlpha: 0.5})
		if _, err := tr.Send(ctx, 2, env); err != nil {
			t.Fatal(err)
		}
	}
	for r := 1; r <= 3; r++ {
		send(tr0, 0, r)
	}
	for r := 1; r <= 2; r++ {
		send(tr1, 1, r)
	}
	for i := 0; i < 5; i++ {
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		if _, _, err := tr2.Recv(rctx); err != nil {
			cancel()
			t.Fatalf("delivery %d: %v", i, err)
		}
		cancel()
	}

	if len(factoryCalls) != 2 || factoryCalls[[2]int{0, 2}] != 1 || factoryCalls[[2]int{1, 2}] != 1 {
		t.Errorf("factory calls = %v, want exactly one per active link", factoryCalls)
	}
	if got := len(recorders[0].Samples); got != 3 {
		t.Errorf("link 0→2 sampled %d times, want 3 (one per delivery)", got)
	}
	if got := len(recorders[1].Samples); got != 2 {
		t.Errorf("link 1→2 sampled %d times, want 2 (one per delivery)", got)
	}
}

// TestChaosDelayModelClampAndNil checks the two degenerate model cases:
// a process emitting negative samples adds nothing (the sample clamps at
// zero, so delivery is as prompt as the base Delay), and a factory
// returning nil for a link falls back to the constant-Delay path.
func TestChaosDelayModelClampAndNil(t *testing.T) {
	net := NewMemNet()
	chaos := NewChaos(ChaosConfig{
		DelayModel: func(from, to int) trace.Process {
			if from == 0 {
				return &trace.Constant{Value: -3}
			}
			return nil
		},
	})
	tr2 := chaos.Wrap(2, net.Node(2))
	tr0, tr1 := net.Node(0), net.Node(1)
	defer tr2.Close()
	defer tr0.Close()
	defer tr1.Close()
	ctx := context.Background()

	for _, from := range []int{0, 1} {
		env := wire.NewEnvelope(from, 2, core.PeerShare{Round: 1, From: from, Cost: 1, LocalAlpha: 0.5})
		var tr Transport = tr0
		if from == 1 {
			tr = tr1
		}
		if _, err := tr.Send(ctx, 2, env); err != nil {
			t.Fatal(err)
		}
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		env, _, err := tr2.Recv(rctx)
		cancel()
		if err != nil {
			t.Fatalf("from %d: %v", from, err)
		}
		if s, ok := env.Msg.(core.PeerShare); !ok || s.From != from {
			t.Errorf("delivered %+v, want a share from %d", env.Msg, from)
		}
	}
}

// TestChaosDelayModelFromGeo wires geo.Config.LinkDelay into the chaos
// transport — the one-source-of-truth path the geo subsystem documents —
// and runs a short fully distributed deployment over it, stacked under
// the reliability layer (time-varying per-message delays can let later
// traffic overtake earlier traffic on the same link, which the protocol
// only tolerates masked). The delayed run must reach the exact same
// trajectory as a fault-free one.
func TestChaosDelayModelFromGeo(t *testing.T) {
	const n, rounds = 3, 8
	x0 := []float64{0.5, 0.3, 0.2}
	sources := func() []CostSource {
		srcs := make([]CostSource, n)
		for i := range srcs {
			srcs[i] = instSource(i)
		}
		return srcs
	}

	clean, err := FullyDistributedDeployment(context.Background(), memTransports(NewMemNet(), n), x0, rounds, sources())
	if err != nil {
		t.Fatal(err)
	}

	gcfg := geo.Uniform(n, 1, 0.004) // 2 ms one-way per link, frozen
	gcfg.Sigma = 0.3
	gcfg.Seed = 17
	chaos := NewChaos(ChaosConfig{
		DelayModel: func(from, to int) trace.Process {
			p, err := gcfg.LinkDelay(from, to)
			if err != nil {
				t.Errorf("LinkDelay(%d, %d): %v", from, to, err)
				return nil
			}
			return p
		},
	})
	ts := chaosStack(NewMemNet(), chaos, n, 5*time.Millisecond)
	defer closeAll(t, ts)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	delayed, err := FullyDistributedDeployment(ctx, ts, x0, rounds, sources())
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		for r := range clean[i].Played {
			if clean[i].Played[r] != delayed[i].Played[r] {
				t.Fatalf("peer %d round %d: delayed trajectory %v diverged from clean %v",
					i, r+1, delayed[i].Played[r], clean[i].Played[r])
			}
		}
	}
}
