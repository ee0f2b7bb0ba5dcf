package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/metrics"
)

// TestInstrumentedMessageAllocatesNothing pins the metered message path:
// once a kind's series exist, an instrumented Send and Recv over MemNet
// allocate nothing (resolving the kind's counter per message built a
// label key each time).
func TestInstrumentedMessageAllocatesNothing(t *testing.T) {
	reg := metrics.NewRegistry()
	net := NewMemNet()
	a := NewInstrumentedMeter(net.Node(0), reg, "a")
	b := NewInstrumentedMeter(net.Node(1), reg, "b")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	env := shareEnvelope(1, core.PeerShare{Round: 1, From: 0, Cost: 0.5, LocalAlpha: 0.01})
	pair := func() {
		if _, err := a.Send(ctx, 1, env); err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	pair() // resolves the share series in both directions
	if got := testing.AllocsPerRun(200, pair); got != 0 {
		t.Errorf("instrumented Send+Recv allocates %.1f times per message, want 0", got)
	}
}

// loopback is a Transport whose Recv returns the envelopes its Send
// accepted, in order, each sized at frameBytes. It isolates a Meter from
// any real network.
type loopback struct {
	queue []Envelope
}

const frameBytes = 10

func (l *loopback) Send(_ context.Context, _ int, env Envelope) (int, error) {
	l.queue = append(l.queue, env)
	return frameBytes, nil
}

func (l *loopback) Recv(context.Context) (Envelope, int, error) {
	env := l.queue[0]
	l.queue = l.queue[1:]
	return env, frameBytes, nil
}

func (l *loopback) Close() error { return nil }

// TestConcurrentMetersCountExactly runs eight meters, each on its own
// goroutine, into one registry; every meter sends and receives every
// valid kind reps times, so each kind's first message races to resolve
// its series. Every goroutine also records each send into one shared
// node's instruments, straight into its per-kind cache with no Meter
// lock in between, so -race sees the cache filled and read
// concurrently. The exposition must count every message exactly, per
// kind and per node, and meters on a second registry must count only
// there.
func TestConcurrentMetersCountExactly(t *testing.T) {
	const meters, reps = 8, 50
	kinds := make([]Kind, 0, numKinds)
	for k := KindCost; int(k) < numKinds; k++ {
		kinds = append(kinds, k)
	}
	run := func(reg *metrics.Registry, prefix string) {
		shared := newNetMetrics(reg, prefix+"-shared")
		var wg sync.WaitGroup
		for i := 0; i < meters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				m := NewInstrumentedMeter(&loopback{}, reg, fmt.Sprintf("%s-%d", prefix, i))
				ctx := context.Background()
				for r := 0; r < reps; r++ {
					for _, k := range kinds {
						if _, err := m.Send(ctx, 0, Envelope{Kind: k}); err != nil {
							t.Error(err)
							return
						}
						shared.recordSend(Envelope{Kind: k}, frameBytes)
						if _, _, err := m.Recv(ctx); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(i)
		}
		wg.Wait()
	}
	reg, other := metrics.NewRegistry(), metrics.NewRegistry()
	run(reg, "peer")
	run(other, "other")

	for _, tc := range []struct {
		reg    *metrics.Registry
		prefix string
	}{{reg, "peer"}, {other, "other"}} {
		var sb strings.Builder
		if err := tc.reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		text := sb.String()
		var want []string
		for _, k := range kinds {
			want = append(want,
				fmt.Sprintf("%s{kind=%q,dir=%q} %d\n", MetricMessages, k.String(), "sent", 2*meters*reps),
				fmt.Sprintf("%s{kind=%q,dir=%q} %d\n", MetricMessages, k.String(), "received", meters*reps))
		}
		perNode := len(kinds) * reps
		want = append(want,
			fmt.Sprintf("%s{node=%q} %d\n", MetricMsgsSent, tc.prefix+"-shared", meters*perNode),
			fmt.Sprintf("%s{node=%q} %d\n", MetricBytesSent, tc.prefix+"-shared", meters*perNode*frameBytes))
		for i := 0; i < meters; i++ {
			node := fmt.Sprintf("%s-%d", tc.prefix, i)
			want = append(want,
				fmt.Sprintf("%s{node=%q} %d\n", MetricMsgsSent, node, perNode),
				fmt.Sprintf("%s{node=%q} %d\n", MetricMsgsReceived, node, perNode),
				fmt.Sprintf("%s{node=%q} %d\n", MetricBytesSent, node, perNode*frameBytes),
				fmt.Sprintf("%s{node=%q} %d\n", MetricBytesReceived, node, perNode*frameBytes),
			)
		}
		for _, w := range want {
			if !strings.Contains(text, w) {
				t.Errorf("%s registry: exposition missing %q", tc.prefix, strings.TrimSpace(w))
			}
		}
		if got, wantN := strings.Count(text, MetricMessages+"{"), 2*len(kinds); got != wantN {
			t.Errorf("%s registry: %d %s series, want %d", tc.prefix, got, MetricMessages, wantN)
		}
		if got, wantN := strings.Count(text, MetricMsgsSent+"{"), meters+1; got != wantN {
			t.Errorf("%s registry: %d %s series, want %d (no node of the other registry)", tc.prefix, got, MetricMsgsSent, wantN)
		}
	}
}

// TestCanceledContextWinsOverReadyMessage pins the transports' order of
// checks: with the context already canceled, Send and Recv return its
// error even though an inbox slot is free or a message is waiting, and
// the message stays queued. A select over both would pick at random.
func TestCanceledContextWinsOverReadyMessage(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	env := NewEnvelope(KindCost, 0, 1, core.CostReport{Round: 1, From: 0, Cost: 1})

	t.Run("memnet", func(t *testing.T) {
		net := NewMemNet()
		a, b := net.Node(0), net.Node(1)
		if _, err := a.Send(context.Background(), 1, env); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			if _, err := a.Send(canceled, 1, env); !errors.Is(err, context.Canceled) {
				t.Fatalf("attempt %d: Send with a canceled context and a free slot = %v, want context.Canceled", i, err)
			}
			if _, _, err := b.Recv(canceled); !errors.Is(err, context.Canceled) {
				t.Fatalf("attempt %d: Recv with a canceled context and a ready message = %v, want context.Canceled", i, err)
			}
		}
		ctx, stop := context.WithTimeout(context.Background(), time.Second)
		defer stop()
		if _, _, err := b.Recv(ctx); err != nil {
			t.Fatalf("the message sent before the canceled calls is gone: %v", err)
		}
		if got := len(net.nodes[1].inbox); got != 0 {
			t.Errorf("%d messages queued after the one real send was received, want 0 (a canceled Send enqueued)", got)
		}
	})

	t.Run("tcp", func(t *testing.T) {
		var nodes [2]*TCPNode
		registry := map[int]string{}
		for i := range nodes {
			n, err := ListenTCP(i, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close() //nolint:errcheck // test teardown
			nodes[i], registry[i] = n, n.Addr()
		}
		for _, n := range nodes {
			n.SetRegistry(registry)
		}
		n0, n1 := nodes[0], nodes[1]
		if _, err := n0.Send(context.Background(), 1, env); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for len(n1.inbox) == 0 {
			if time.Now().After(deadline) {
				t.Fatal("the message never reached the receiver's inbox")
			}
			time.Sleep(time.Millisecond)
		}
		for i := 0; i < 64; i++ {
			if _, _, err := n1.Recv(canceled); !errors.Is(err, context.Canceled) {
				t.Fatalf("attempt %d: Recv with a canceled context and a ready message = %v, want context.Canceled", i, err)
			}
		}
		if _, _, err := n1.Recv(context.Background()); err != nil {
			t.Fatalf("the ready message is gone: %v", err)
		}
	})
}

// TestMemNetCloseUnblocksRecv pins the Transport contract on MemNet: a
// Recv waiting on a context that never ends returns ErrClosed once its
// node is closed.
func TestMemNetCloseUnblocksRecv(t *testing.T) {
	net := NewMemNet()
	node := net.Node(0)
	done := make(chan error, 1)
	go func() {
		_, _, err := node.Recv(context.Background())
		done <- err
	}()
	// Let Recv reach its blocking select. The assertion below holds if
	// Close wins the race instead; only the path exercised differs.
	time.Sleep(10 * time.Millisecond)
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("pending Recv returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending Recv still blocked 5s after Close")
	}
	if err := node.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}
