package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/costfn"
	"dolbie/internal/metrics"
	"dolbie/internal/simplex"
	"dolbie/internal/wire"
)

func BenchmarkEnvelopeRoundTrip(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := NewEnvelope(KindCost, 3, 30, core.CostReport{Round: i, From: 3, Cost: 1.25})
		if _, err := wire.Payload[core.CostReport](env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemNetSendRecv measures one message through the in-memory hub.
func BenchmarkMemNetSendRecv(b *testing.B) {
	net := NewMemNet()
	a := net.Node(0)
	c := net.Node(1)
	ctx := context.Background()
	env := NewEnvelope(KindCost, 0, 1, core.CostReport{Round: 1, From: 0, Cost: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Send(ctx, 1, env); err != nil {
			b.Fatal(err)
		}
		if _, _, err := c.Recv(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemNetParallelInstrumented measures the message path a
// fully-distributed deployment runs: 8 peers, each on its own goroutine
// with an instrumented Meter, share one registry and send around a ring
// over one MemNet. Like the drivers, each peer sends and receives on a
// child context of its own under one cancelable deployment context. An
// op is one message sent and received by every peer, so allocs/op
// counts 8 messages, and what the peers still share (the per-kind
// counters, each inbox's channel lock) shows in ns/op.
func BenchmarkMemNetParallelInstrumented(b *testing.B) {
	const peers = 8
	reg := metrics.NewRegistry()
	net := NewMemNet()
	meters := make([]*Meter, peers)
	for i := range meters {
		meters[i] = NewInstrumentedMeter(net.Node(i), reg, fmt.Sprintf("peer-%d", i))
	}
	deployment, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctxs := make([]context.Context, peers)
	for i := range ctxs {
		var cancel context.CancelFunc
		ctxs[i], cancel = context.WithCancel(deployment)
		defer cancel()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := range meters {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := ctxs[i]
			next := (i + 1) % peers
			env := shareEnvelope(next, core.PeerShare{Round: 1, From: i, Cost: 1, LocalAlpha: 0.01})
			for r := 0; r < b.N; r++ {
				if _, err := meters[i].Send(ctx, next, env); err != nil {
					b.Error(err)
					return
				}
				if _, _, err := meters[i].Recv(ctx); err != nil {
					b.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*peers), "ns/msg")
}

// BenchmarkTCPSendRecv measures one framed protocol message over a real
// localhost TCP connection, once per wire codec.
func BenchmarkTCPSendRecv(b *testing.B) {
	b.Run("binary", func(b *testing.B) { benchTCPSendRecv(b, wire.Binary) })
	b.Run("json", func(b *testing.B) { benchTCPSendRecv(b, wire.JSON) })
}

func benchTCPSendRecv(b *testing.B, codec wire.Codec) {
	n0, err := ListenTCP(0, "127.0.0.1:0", WithTCPCodec(codec))
	if err != nil {
		b.Fatal(err)
	}
	defer n0.Close() //nolint:errcheck // bench teardown
	n1, err := ListenTCP(1, "127.0.0.1:0", WithTCPCodec(codec))
	if err != nil {
		b.Fatal(err)
	}
	defer n1.Close() //nolint:errcheck // bench teardown
	registry := map[int]string{0: n0.Addr(), 1: n1.Addr()}
	n0.SetRegistry(registry)
	n1.SetRegistry(registry)

	ctx := context.Background()
	env := NewEnvelope(KindCost, 0, 1, core.CostReport{Round: 1, From: 0, Cost: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n0.Send(ctx, 1, env); err != nil {
			b.Fatal(err)
		}
		if _, _, err := n1.Recv(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMasterWorkerDeploymentRound measures a full deployed protocol
// round (all nodes, all messages) on the in-memory network, amortized
// over a multi-round run.
func BenchmarkMasterWorkerDeploymentRound(b *testing.B) {
	const n = 10
	const roundsPerRun = 50
	sources := make([]CostSource, n)
	for i := range sources {
		sources[i] = instBenchSource(i)
	}
	x0 := simplex.Uniform(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		net := NewMemNet()
		transports := make([]Transport, n+1)
		for j := range transports {
			transports[j] = net.Node(j)
		}
		if _, _, err := MasterWorkerDeployment(ctx, transports, x0, roundsPerRun, sources); err != nil {
			cancel()
			b.Fatal(err)
		}
		cancel()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*roundsPerRun), "ns/round")
}

// BenchmarkFullyDistributedDeploymentRound measures a full Algorithm 2
// round, the path perfbench's rounds_fd workload times: 8 peers on one
// MemNet, instrumented on one registry through core.WithMetrics, each
// fed a seeded affine cost stream. An op is one round at every peer of
// a b.N-round deployment, so ns/op and allocs/op are per round, with
// the deployment's setup amortized over it.
func BenchmarkFullyDistributedDeploymentRound(b *testing.B) {
	const peers = 8
	reg := metrics.NewRegistry()
	net := NewMemNet()
	transports := make([]Transport, peers)
	sources := make([]CostSource, peers)
	for i := range transports {
		transports[i] = net.Node(i)
		sources[i] = seededAffineSource(int64(i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := FullyDistributedDeployment(ctx, transports, simplex.Uniform(peers), b.N, sources, core.WithMetrics(reg)); err != nil {
		b.Fatal(err)
	}
}

// seededAffineSource is one peer's cost stream: affine costs whose slope
// and intercept a generator seeded with seed draws round by round. Like
// every in-repo source, it boxes its costfn.Affine into a costfn.Func.
func seededAffineSource(seed int64) CostSource {
	rng := rand.New(rand.NewSource(seed))
	return FuncSource(func(_ int, x float64) (float64, costfn.Func, error) {
		f := costfn.Affine{Slope: 1 + 4*rng.Float64(), Intercept: 0.1 * rng.Float64()}
		return f.Eval(x), f, nil
	})
}

func instBenchSource(id int) CostSource {
	return instSource(id)
}
