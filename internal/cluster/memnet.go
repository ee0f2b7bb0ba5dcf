package cluster

import (
	"context"
	"fmt"
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
// operations. Faults are injected by wrapping its nodes with the Chaos
// transport, whose every decision is a pure function of its seed and the
// message, never of goroutine order. Messages are not actually encoded,
// but every send is sized with the hub's codec (wire.FrameSize, default
// binary) so metered traffic matches what a real TCP deployment of the
// same codec would carry.
//
// A canceled context wins over a ready message or a free inbox slot:
// Send and Recv then return the context's error. Closing a node makes
// its pending and later Recv calls return ErrClosed.
type MemNet struct {
	mu     sync.Mutex
	nodes  map[int]*memNode
	buffer int
	codec  wire.Codec
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
