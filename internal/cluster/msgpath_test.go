package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/metrics"
	"dolbie/internal/simplex"
	"dolbie/internal/wire"
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
	env := wire.NewEnvelope(0, 1, core.PeerShare{Round: 1, From: 0, Cost: 0.5, LocalAlpha: 0.01})
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

// TestElasticStaleShareAllocatesNothing pins the receive path of the
// Algorithm 2 peer: taking a payload out of its envelope copies it, so a
// peer that drops a stale share allocates nothing for it.
func TestElasticStaleShareAllocatesNothing(t *testing.T) {
	m, err := incumbentMachine(0, []float64{0.25, 0.25, 0.25, 0.25}, 10, instSource(0), ElasticPeerConfig{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.start()
	for {
		if _, ok := m.next(); !ok {
			break
		}
	}
	stale := wire.NewEnvelope(1, 0, core.PeerShare{Round: 0, From: 1, Cost: 0.5, LocalAlpha: 0.01})
	if got := testing.AllocsPerRun(200, func() { m.handle(stale) }); got != 0 {
		t.Errorf("handling a stale share allocates %.1f times per frame, want 0", got)
	}
	if m.finished || m.p.Round() != 1 {
		t.Fatalf("a stale share moved the peer: finished %v, round %d", m.finished, m.p.Round())
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

// sink is a Transport that accepts every send, sized at frameBytes, and
// never delivers anything; any number of goroutines may send on it.
type sink struct{}

func (sink) Send(context.Context, int, Envelope) (int, error) { return frameBytes, nil }

func (sink) Recv(ctx context.Context) (Envelope, int, error) {
	<-ctx.Done()
	return Envelope{}, 0, ctx.Err()
}

func (sink) Close() error { return nil }

// TestConcurrentMetersCountExactly runs eight meters, each on its own
// goroutine, into one registry; every meter sends and receives a real
// payload of every kind reps times. Every goroutine also sends each
// message through one shared node's Meter, and the registry is scraped
// throughout, so -race sees one meter's tallies added to from eight
// goroutines while the scrape hooks publish them and resolve each
// kind's first series. The exposition must count every message
// exactly, per kind and per node, and meters on a second registry must
// count only there.
func TestConcurrentMetersCountExactly(t *testing.T) {
	const meters, reps = 8, 50
	var envs []Envelope
	seen := map[wire.Kind]bool{}
	for _, r := range bindingRows() {
		if !seen[r.kind] {
			seen[r.kind] = true
			envs = append(envs, r.env())
		}
	}
	if len(envs) != numKinds-1 {
		t.Fatalf("%d payload kinds, want %d", len(envs), numKinds-1)
	}
	run := func(reg *metrics.Registry, prefix string) {
		shared := NewInstrumentedMeter(sink{}, reg, prefix+"-shared")
		stop := make(chan struct{})
		scraped := make(chan struct{})
		go func() {
			defer close(scraped)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := reg.WriteText(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		var wg sync.WaitGroup
		for i := 0; i < meters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				m := NewInstrumentedMeter(&loopback{}, reg, fmt.Sprintf("%s-%d", prefix, i))
				ctx := context.Background()
				for r := 0; r < reps; r++ {
					for _, env := range envs {
						if _, err := m.Send(ctx, 0, env); err != nil {
							t.Error(err)
							return
						}
						if _, err := shared.Send(ctx, 0, env); err != nil {
							t.Error(err)
							return
						}
						if _, _, err := m.Recv(ctx); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(i)
		}
		wg.Wait()
		close(stop)
		<-scraped
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
		for _, env := range envs {
			want = append(want,
				fmt.Sprintf("%s{kind=%q,dir=%q} %d\n", MetricMessages, env.Kind(), "sent", 2*meters*reps),
				fmt.Sprintf("%s{kind=%q,dir=%q} %d\n", MetricMessages, env.Kind(), "received", meters*reps))
		}
		perNode := len(envs) * reps
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
		if got, wantN := strings.Count(text, MetricMessages+"{"), 2*len(envs); got != wantN {
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
	env := wire.NewEnvelope(0, 1, core.CostReport{Round: 1, From: 0, Cost: 1})

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
		if got := len(b.(*memTransport).node.inbox); got != 0 {
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

// TestMemNetRecvWakesOnContextEnd pins the wakes of a blocked receive:
// a Recv waiting on an empty inbox returns its context's error promptly
// once the context is canceled, or once its deadline passes, and the
// node still delivers what is sent to it afterwards.
func TestMemNetRecvWakesOnContextEnd(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		end  func(cancel context.CancelFunc) // ends the context of a blocked Recv
		want error
	}{
		{"canceled", func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) },
			func(cancel context.CancelFunc) { cancel() }, context.Canceled},
		{"deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 20*time.Millisecond)
		}, func(context.CancelFunc) {}, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := NewMemNet()
			a, b := net.Node(0), net.Node(1)
			ctx, cancel := tc.ctx()
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, _, err := b.Recv(ctx)
				done <- err
			}()
			// Let Recv block on the empty inbox; if tc.end wins the race,
			// Recv finds the context ended before it waits.
			time.Sleep(10 * time.Millisecond)
			tc.end(cancel)
			select {
			case err := <-done:
				if !errors.Is(err, tc.want) {
					t.Fatalf("blocked Recv returned %v, want %v", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("blocked Recv still waiting 5s after its context ended")
			}
			env := wire.NewEnvelope(0, 1, core.PeerShare{Round: 1, From: 0, Cost: 1, LocalAlpha: 0.01})
			if _, err := a.Send(context.Background(), 1, env); err != nil {
				t.Fatal(err)
			}
			got, _, err := b.Recv(context.Background())
			if err != nil || got.Msg != env.Msg {
				t.Fatalf("Recv after the wake = %+v, %v; want the share sent", got, err)
			}
		})
	}
}

// TestMemNetSkipsStaleWakes pins what a wake left in an inbox does. A
// context that ends after its receive has returned leaves one there
// (here put there directly), and later receives skip it: they return
// the real deliveries around it in send order, and leave nothing behind.
func TestMemNetSkipsStaleWakes(t *testing.T) {
	net := NewMemNet()
	a, b := net.Node(0), net.Node(1)
	node := b.(*memTransport).node
	ctx := context.Background()
	share := func(round int) Envelope {
		return wire.NewEnvelope(0, 1, core.PeerShare{Round: round, From: 0, Cost: 1, LocalAlpha: 0.01})
	}
	node.wake()
	for round := 1; round <= 3; round++ {
		if _, err := a.Send(ctx, 1, share(round)); err != nil {
			t.Fatal(err)
		}
		if round == 1 {
			node.wake()
		}
	}
	for round := 1; round <= 3; round++ {
		env, _, err := b.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if s, ok := env.Msg.(core.PeerShare); !ok || s.Round != round {
			t.Fatalf("receive %d returned %+v, want the share of round %d", round, env.Msg, round)
		}
	}
	if n := len(node.inbox); n != 0 {
		t.Errorf("%d deliveries left in the inbox, want 0", n)
	}
}

// doneLog notes the nodes that received, the first node seen on each
// Done channel, and each other node seen on it after that.
type doneLog struct {
	mu     sync.Mutex
	nodes  map[int]bool
	owner  map[<-chan struct{}]int
	shared map[[2]int]bool // {owner, node}
}

func (l *doneLog) note(done <-chan struct{}, id int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nodes[id] = true
	if owner, ok := l.owner[done]; !ok {
		l.owner[done] = id
	} else if owner != id {
		l.shared[[2]int{owner, id}] = true
	}
}

// doneRecorder is node id's Transport, noting the Done channel of every
// context it receives on.
type doneRecorder struct {
	Transport
	id  int
	log *doneLog
}

func (r doneRecorder) Recv(ctx context.Context) (Envelope, int, error) {
	r.log.note(ctx.Done(), r.id)
	return r.Transport.Recv(ctx)
}

// TestDriversReceiveOnPrivateContexts pins the drivers' private
// contexts: no two nodes of a deployment block on one Done channel, so
// a waiting node locks no channel another node locks. Each deployment
// runs on one MemNet through recording transports.
func TestDriversReceiveOnPrivateContexts(t *testing.T) {
	const rounds = 5
	sources := func(n int) []CostSource {
		s := make([]CostSource, n)
		for i := range s {
			s[i] = instSource(i)
		}
		return s
	}
	for _, tc := range []struct {
		name  string
		nodes int
		run   func(ctx context.Context, ts []Transport) error
	}{
		{"fully-distributed", 4, func(ctx context.Context, ts []Transport) error {
			_, err := FullyDistributedDeployment(ctx, ts, simplex.Uniform(4), rounds, sources(4))
			return err
		}},
		{"master-worker", 3 + 1, func(ctx context.Context, ts []Transport) error {
			_, _, err := MasterWorkerDeployment(ctx, ts, simplex.Uniform(3), rounds, sources(3))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := &doneLog{nodes: map[int]bool{}, owner: map[<-chan struct{}]int{}, shared: map[[2]int]bool{}}
			net := NewMemNet()
			ts := make([]Transport, tc.nodes)
			for i := range ts {
				ts[i] = doneRecorder{Transport: net.Node(i), id: i, log: log}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := tc.run(ctx, ts); err != nil {
				t.Fatal(err)
			}
			for pair := range log.shared {
				t.Errorf("node %d receives on node %d's Done channel", pair[1], pair[0])
			}
			if len(log.nodes) != tc.nodes {
				t.Errorf("receives noted on %d nodes, want all %d", len(log.nodes), tc.nodes)
			}
		})
	}
}

// TestMemNetReachesLateNodes pins the slot table's growth: transports
// made before a node registered, and before the table grew, reach it.
func TestMemNetReachesLateNodes(t *testing.T) {
	net := NewMemNet()
	a := net.Node(0)
	ctx := context.Background()
	env := wire.NewEnvelope(0, 1, core.PeerShare{Round: 1, From: 0, Cost: 1, LocalAlpha: 0.01})
	if _, err := a.Send(ctx, 1, env); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Send to an unregistered node = %v, want ErrUnknownNode", err)
	}
	for _, id := range []int{1, 2, 7, 100, 3} {
		b := net.Node(id)
		env := wire.NewEnvelope(0, id, core.PeerShare{Round: 1, From: 0, Cost: 1, LocalAlpha: 0.01})
		if _, err := a.Send(ctx, id, env); err != nil {
			t.Fatalf("Send to node %d registered after the sender: %v", id, err)
		}
		got, _, err := b.Recv(ctx)
		if err != nil || got.To != id {
			t.Fatalf("node %d received %+v, %v", id, got, err)
		}
	}
	if _, err := net.Node(100).Send(ctx, 0, wire.NewEnvelope(100, 0, core.PeerShare{Round: 1, From: 100, Cost: 1, LocalAlpha: 0.01})); err != nil {
		t.Fatalf("a second endpoint of node 100 cannot send: %v", err)
	}
	if _, _, err := a.Recv(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestMemNetConcurrentUse runs Node, Send, Recv and Close from 8
// goroutines at once; -race checks the lock-free table. Once all 8
// nodes are registered, each goroutine sends msgs shares around a ring,
// registering far ids as it goes so the table grows under the others'
// sends, then receives its predecessor's shares in FIFO order and
// closes its node, after which its own sends and receives fail.
func TestMemNetConcurrentUse(t *testing.T) {
	const workers, msgs = 8, 200
	net := NewMemNet()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var registered, wg sync.WaitGroup
	registered.Add(workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			self := net.Node(i)
			registered.Done()
			registered.Wait()
			next, prev := (i+1)%workers, (i+workers-1)%workers
			for k := 1; k <= msgs; k++ {
				if k%20 == 0 {
					net.Node(64 + workers*k + i)
				}
				env := wire.NewEnvelope(i, next, core.PeerShare{Round: k, From: i, Cost: 1, LocalAlpha: 0.01})
				if _, err := self.Send(ctx, next, env); err != nil {
					t.Errorf("node %d send %d: %v", i, k, err)
					return
				}
			}
			for k := 1; k <= msgs; k++ {
				env, _, err := self.Recv(ctx)
				if err != nil {
					t.Errorf("node %d recv %d: %v", i, k, err)
					return
				}
				if s, ok := env.Msg.(core.PeerShare); !ok || s.From != prev || s.Round != k {
					t.Errorf("node %d recv %d: %+v; want round %d from %d", i, k, env.Msg, k, prev)
					return
				}
			}
			if err := self.Close(); err != nil {
				t.Error(err)
			}
			if _, err := self.Send(ctx, next, wire.NewEnvelope(i, next, core.PeerShare{Round: 1, From: i})); !errors.Is(err, ErrClosed) {
				t.Errorf("node %d send after close: %v, want ErrClosed", i, err)
			}
			if _, _, err := self.Recv(ctx); !errors.Is(err, ErrClosed) {
				t.Errorf("node %d recv after close: %v, want ErrClosed", i, err)
			}
		}(i)
	}
	wg.Wait()
	far := net.Node(64)
	for i := 0; i < workers; i++ {
		if _, err := far.Send(ctx, i, wire.NewEnvelope(64, i, core.PeerShare{Round: 1, From: 64})); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("send to closed node %d: %v, want ErrUnknownNode", i, err)
		}
	}
}
