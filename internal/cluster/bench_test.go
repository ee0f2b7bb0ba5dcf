package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/metrics"
	"dolbie/internal/simplex"
	"dolbie/internal/wire"
)

func BenchmarkEnvelopeRoundTrip(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := NewEnvelope(KindCost, 3, 30, core.CostReport{Round: i, From: 3, Cost: 1.25})
		var r core.CostReport
		if err := env.Decode(&r); err != nil {
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
// with an instrumented Meter, share one registry and one cancelable
// context, and send around a ring over one MemNet. An op is one message
// sent and received by every peer, so allocs/op counts 8 messages and
// cross-peer contention on the shared context, counters and hub shows in
// ns/op.
func BenchmarkMemNetParallelInstrumented(b *testing.B) {
	const peers = 8
	reg := metrics.NewRegistry()
	net := NewMemNet()
	meters := make([]*Meter, peers)
	for i := range meters {
		meters[i] = NewInstrumentedMeter(net.Node(i), reg, fmt.Sprintf("peer-%d", i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := range meters {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
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

func instBenchSource(id int) CostSource {
	return instSource(id)
}
