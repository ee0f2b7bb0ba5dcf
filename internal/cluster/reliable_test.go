package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/simplex"
	"dolbie/internal/wire"
)

// reliableNodes stacks the reliability layer over count MemNet nodes,
// each first wrapped by a chaos layer dropping every delivery attempt
// with probability drop (none when zero).
func reliableNodes(t *testing.T, count int, drop float64, seed int64, retry time.Duration) []Transport {
	t.Helper()
	net := NewMemNet()
	chaos := NewChaos(ChaosConfig{Seed: seed, DropProb: drop})
	transports := make([]Transport, count)
	for i := range transports {
		var inner Transport = net.Node(i)
		if drop > 0 {
			inner = chaos.Wrap(i, inner)
		}
		r := NewReliable(i, inner, retry)
		t.Cleanup(func() { r.Close() }) //nolint:errcheck // test teardown
		transports[i] = r
	}
	return transports
}

func TestReliableDeliversOverLossyLink(t *testing.T) {
	// 40% drop probability: raw delivery would stall almost immediately;
	// the reliability layer must still deliver every message exactly once.
	transports := reliableNodes(t, 2, 0.4, 42, 5*time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	const total = 50
	go func() {
		for i := 0; i < total; i++ {
			env := wire.NewEnvelope(0, 1, core.CostReport{Round: i + 1, From: 0, Cost: float64(i)})
			if _, err := transports[0].Send(ctx, 1, env); err != nil {
				return
			}
		}
	}()

	seen := map[int]bool{}
	for len(seen) < total {
		env, _, err := transports[1].Recv(ctx)
		if err != nil {
			t.Fatalf("received %d of %d before failure: %v", len(seen), total, err)
		}
		r, ok := env.Msg.(core.CostReport)
		if !ok {
			t.Fatalf("payload %T, want a cost report", env.Msg)
		}
		if seen[r.Round] {
			t.Fatalf("duplicate delivery of round %d", r.Round)
		}
		seen[r.Round] = true
	}
}

func TestReliablePreservesPerPairContent(t *testing.T) {
	// Without drops the layer is just framing: everything flows through.
	transports := reliableNodes(t, 2, 0, 0, 50*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	want := core.Coordinate{Round: 7, GlobalCost: 1.25, Alpha: 0.001, Straggler: 3}
	env := wire.NewEnvelope(0, 1, want)
	if _, err := transports[0].Send(ctx, 1, env); err != nil {
		t.Fatal(err)
	}
	got, _, err := transports[1].Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := got.Msg.(core.Coordinate); !ok || c != want {
		t.Errorf("round trip = %+v, want %+v", got.Msg, want)
	}
}

func TestReliableClose(t *testing.T) {
	net := NewMemNet()
	r := NewReliable(0, net.Node(0), 10*time.Millisecond)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Errorf("second close should be a no-op, got %v", err)
	}
	env := wire.NewEnvelope(0, 1, core.CostReport{})
	if _, err := r.Send(context.Background(), 1, env); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
	if _, _, err := r.Recv(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("recv after close = %v, want ErrClosed", err)
	}
}

// TestDeploymentSucceedsOnLossyNetworkWithReliability is the payoff: the
// same lossy network that deadlines a raw deployment completes when every
// node sits behind the reliability layer.
func TestDeploymentSucceedsOnLossyNetworkWithReliability(t *testing.T) {
	const n, rounds = 4, 15
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	transports := reliableNodes(t, n+1, 0.2, 7, 5*time.Millisecond) // same loss as the failing raw test

	sources := make([]CostSource, n)
	for i := range sources {
		sources[i] = instSource(i)
	}
	x0 := simplex.Uniform(n)
	masterRes, workerRes, err := MasterWorkerDeployment(ctx, transports, x0, rounds, sources)
	if err != nil {
		t.Fatalf("lossy deployment with reliability failed: %v", err)
	}
	if masterRes.Rounds != rounds {
		t.Errorf("completed %d rounds, want %d", masterRes.Rounds, rounds)
	}
	// The trajectory still matches the centralized balancer exactly: the
	// reliability layer is transparent to the protocol.
	want := centralizedTrajectory(t, n, rounds)
	for i, wr := range workerRes {
		for r := 1; r < rounds; r++ {
			if diff := wr.Played[r] - want[r-1][i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("worker %d round %d: played %v, want %v", i, r, wr.Played[r], want[r-1][i])
			}
		}
	}
}

func TestFullyDistributedOnLossyNetworkWithReliability(t *testing.T) {
	const n, rounds = 3, 10
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	transports := reliableNodes(t, n, 0.15, 3, 5*time.Millisecond)
	sources := make([]CostSource, n)
	for i := range sources {
		sources[i] = instSource(i)
	}
	res, err := FullyDistributedDeployment(ctx, transports, simplex.Uniform(n), rounds, sources)
	if err != nil {
		t.Fatalf("lossy fully-distributed deployment failed: %v", err)
	}
	want := centralizedTrajectory(t, n, rounds)
	for i, pr := range res {
		if diff := pr.Played[rounds-1] - want[rounds-2][i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("peer %d final play %v, want %v", i, pr.Played[rounds-1], want[rounds-2][i])
		}
	}
}

// TestReliableComposesOverTCP checks that the reliability layer is
// transport-agnostic: wrapped around real TCP sockets, a full deployment
// still completes and matches the centralized trajectory.
func TestReliableComposesOverTCP(t *testing.T) {
	const n, rounds = 3, 8
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	nodes := make([]*TCPNode, n+1)
	registry := make(map[int]string, n+1)
	for i := 0; i <= n; i++ {
		node, err := ListenTCP(i, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		registry[i] = node.Addr()
	}
	transports := make([]Transport, n+1)
	for i, node := range nodes {
		node.SetRegistry(registry)
		r := NewReliable(i, node, 20*time.Millisecond)
		t.Cleanup(func() { r.Close() }) //nolint:errcheck // test teardown
		transports[i] = r
	}
	sources := make([]CostSource, n)
	for i := range sources {
		sources[i] = instSource(i)
	}
	masterRes, workerRes, err := MasterWorkerDeployment(ctx, transports, simplex.Uniform(n), rounds, sources)
	if err != nil {
		t.Fatal(err)
	}
	if masterRes.Rounds != rounds {
		t.Errorf("completed %d rounds, want %d", masterRes.Rounds, rounds)
	}
	want := centralizedTrajectory(t, n, rounds)
	for i, wr := range workerRes {
		if diff := wr.Played[rounds-1] - want[rounds-2][i]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("worker %d final play %v, want %v", i, wr.Played[rounds-1], want[rounds-2][i])
		}
	}
}

// TestReliableRandomLossProperty sweeps drop probabilities and seeds: the
// layer must deliver all messages exactly once, in order, at any loss
// rate below 1.
func TestReliableRandomLossProperty(t *testing.T) {
	for _, drop := range []float64{0.05, 0.3, 0.6} {
		for seed := int64(0); seed < 3; seed++ {
			net := NewMemNet()
			chaos := NewChaos(ChaosConfig{Seed: seed, DropProb: drop})
			a := NewReliable(0, chaos.Wrap(0, net.Node(0)), 2*time.Millisecond)
			b := NewReliable(1, chaos.Wrap(1, net.Node(1)), 2*time.Millisecond)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)

			const total = 20
			go func() {
				for i := 0; i < total; i++ {
					env := wire.NewEnvelope(0, 1, core.CostReport{Round: i + 1, From: 0})
					if _, err := a.Send(ctx, 1, env); err != nil {
						return
					}
				}
			}()
			for i := 0; i < total; i++ {
				env, _, err := b.Recv(ctx)
				if err != nil {
					t.Fatalf("drop=%v seed=%d: delivery %d failed: %v", drop, seed, i, err)
				}
				if r, ok := env.Msg.(core.CostReport); !ok || r.Round != i+1 {
					t.Fatalf("drop=%v seed=%d: got %+v at position %d (order violated)", drop, seed, env.Msg, i)
				}
			}
			cancel()
			a.Close() //nolint:errcheck // test teardown
			b.Close() //nolint:errcheck // test teardown
		}
	}
}
