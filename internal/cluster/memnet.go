package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"dolbie/internal/wire"
)

// delivery is an in-flight MemNet message: the envelope plus its frame
// size under the hub's codec, computed once at send so both ends meter
// identical byte counts without re-encoding.
type delivery struct {
	env Envelope
	n   int
}

// MemNet is an in-memory network hub for tests and single-process
// simulations. Every registered node gets a buffered inbox; Send enqueues
// directly, so delivery preserves per-receiver FIFO order of the send
// operations. Deterministic fault injection (message drops and node
// partitions) is available for failure testing. Messages are not
// actually encoded, but every send is sized with the hub's codec
// (wire.FrameSize, default binary) so metered traffic matches what a
// real TCP deployment of the same codec would carry.
//
// A canceled context wins over a ready message or a free inbox slot:
// Send and Recv then return the context's error. Closing a node makes
// its pending and later Recv calls return ErrClosed.
type MemNet struct {
	mu       sync.Mutex
	nodes    map[int]*memNode
	dropProb float64
	rng      *rand.Rand
	cut      map[[2]int]bool // severed directed links
	buffer   int
	codec    wire.Codec
}

// memNode is one registered endpoint of a MemNet. done is closed, once,
// when the node is closed, which unblocks a pending recv.
type memNode struct {
	inbox  chan delivery
	done   chan struct{}
	closed bool
}

// MemNetOption configures a MemNet.
type MemNetOption func(*MemNet)

// WithDropProb drops each message independently with probability p, using
// a deterministic seeded source. The DOLBIE protocols stall forever on a
// single lost message, so a lossy MemNet must run beneath a Reliable
// wrapper, which masks the drops with retransmission — on its own this
// option only simulates an unusable network. For richer, per-link fault
// injection (delay, duplication, reordering, round-gated partitions,
// crashes) use the Chaos wrapper instead, which composes over any
// Transport.
func WithDropProb(p float64, seed int64) MemNetOption {
	return func(m *MemNet) {
		m.dropProb = p
		m.rng = rand.New(rand.NewSource(seed))
	}
}

// WithInboxBuffer overrides the per-node inbox capacity (default 1024).
func WithInboxBuffer(n int) MemNetOption {
	return func(m *MemNet) {
		if n > 0 {
			m.buffer = n
		}
	}
}

// WithCodec selects the wire codec used to size simulated traffic
// (default wire.Default). A nil codec is ignored.
func WithCodec(c wire.Codec) MemNetOption {
	return func(m *MemNet) {
		if c != nil {
			m.codec = c
		}
	}
}

// NewMemNet constructs an empty hub.
func NewMemNet(opts ...MemNetOption) *MemNet {
	m := &MemNet{
		nodes:  make(map[int]*memNode),
		cut:    make(map[[2]int]bool),
		buffer: 1024,
		codec:  wire.Default,
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Node registers (or returns) the transport endpoint of node id.
func (m *MemNet) Node(id int) Transport {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.nodes[id]; !ok {
		m.nodes[id] = &memNode{inbox: make(chan delivery, m.buffer), done: make(chan struct{})}
	}
	return &memTransport{net: m, id: id}
}

// Cut severs the directed link from -> to; messages sent over it are
// silently dropped until Heal. Unlike WithDropProb's losses, a cut is
// NOT masked by a Reliable wrapper — retransmissions die on the severed
// link just like first attempts — so the protocols stall until Heal or,
// under the fail-stop extension, until the silent peer is evicted. For
// partitions that start and end at protocol-round boundaries (and are
// therefore reproducible independent of scheduling) use the Chaos
// wrapper's ChaosPartition instead.
func (m *MemNet) Cut(from, to int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cut[[2]int{from, to}] = true
}

// Heal restores the directed link from -> to.
func (m *MemNet) Heal(from, to int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.cut, [2]int{from, to})
}

// send and recv serve memTransport, whose own id Node registered, so
// m.nodes[from] in send and m.nodes[id] in recv always exist.
func (m *MemNet) send(ctx context.Context, from, to int, env Envelope) (int, error) {
	n, err := wire.FrameSize(m.codec, env)
	if err != nil {
		return 0, fmt.Errorf("cluster: send to %d: %w", to, err)
	}
	m.mu.Lock()
	if m.nodes[from].closed {
		m.mu.Unlock()
		return 0, fmt.Errorf("%w (node %d)", ErrClosed, from)
	}
	dst, ok := m.nodes[to]
	if !ok || dst.closed {
		m.mu.Unlock()
		return 0, fmt.Errorf("%w: %d", ErrUnknownNode, to)
	}
	if m.cut[[2]int{from, to}] {
		m.mu.Unlock()
		return n, nil // silently dropped: partition
	}
	if m.rng != nil && m.rng.Float64() < m.dropProb {
		m.mu.Unlock()
		return n, nil // silently dropped: lossy link
	}
	m.mu.Unlock()

	// The context is shared by every peer of a deployment, so it is
	// polled first: a non-blocking receive takes no lock while the
	// context is live, where a select would lock its channel on every
	// message. The blocking select runs only when the inbox is full.
	d := delivery{env: env, n: n}
	select {
	case <-ctx.Done():
		return 0, fmt.Errorf("cluster: send to %d: %w", to, ctx.Err())
	default:
	}
	select {
	case dst.inbox <- d:
		return n, nil
	default:
	}
	select {
	case dst.inbox <- d:
		return n, nil
	case <-ctx.Done():
		return 0, fmt.Errorf("cluster: send to %d: %w", to, ctx.Err())
	}
}

func (m *MemNet) recv(ctx context.Context, id int) (Envelope, int, error) {
	m.mu.Lock()
	node := m.nodes[id]
	closed := node.closed
	m.mu.Unlock()
	if closed {
		return Envelope{}, 0, fmt.Errorf("%w (node %d)", ErrClosed, id)
	}
	// Same order as send: the context, then the inbox without blocking,
	// and the blocking select only when the inbox is empty.
	select {
	case <-ctx.Done():
		return Envelope{}, 0, fmt.Errorf("cluster: recv on %d: %w", id, ctx.Err())
	default:
	}
	select {
	case d := <-node.inbox:
		return d.env, d.n, nil
	default:
	}
	select {
	case d := <-node.inbox:
		return d.env, d.n, nil
	case <-node.done:
		return Envelope{}, 0, fmt.Errorf("%w (node %d)", ErrClosed, id)
	case <-ctx.Done():
		return Envelope{}, 0, fmt.Errorf("cluster: recv on %d: %w", id, ctx.Err())
	}
}

func (m *MemNet) closeNode(id int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if node := m.nodes[id]; !node.closed {
		node.closed = true
		close(node.done)
	}
	return nil
}

// memTransport is a node's endpoint into a MemNet.
type memTransport struct {
	net *MemNet
	id  int
}

var _ Transport = (*memTransport)(nil)

func (t *memTransport) Send(ctx context.Context, to int, env Envelope) (int, error) {
	return t.net.send(ctx, t.id, to, env)
}

func (t *memTransport) Recv(ctx context.Context) (Envelope, int, error) {
	return t.net.recv(ctx, t.id)
}

func (t *memTransport) Close() error { return t.net.closeNode(t.id) }
