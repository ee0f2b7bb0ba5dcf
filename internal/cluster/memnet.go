package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

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
// Send and Recv take no hub-wide lock: each endpoint holds its own
// node, and a sender finds its destination in a table of atomic
// pointers indexed by node id, which Node grows by doubling. Node ids
// must not be negative, and the table is as long as the largest one
// registered, so they are meant to be dense (0..n).
//
// A canceled context wins over a ready message or a free inbox slot:
// Send and Recv then return the context's error. Closing a node makes
// its pending and later Recv calls return ErrClosed.
type MemNet struct {
	mu     sync.Mutex                                // serializes Node's registrations and table growth
	slots  atomic.Pointer[[]atomic.Pointer[memNode]] // node id -> node; nil: not registered
	buffer int
	codec  wire.Codec
}

// memNode is one registered endpoint of a MemNet. Closing it sets
// closed and closes done, once, which unblocks a pending recv.
type memNode struct {
	inbox  chan delivery
	done   chan struct{}
	closed atomic.Bool
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
		buffer: 1024,
		codec:  wire.Default,
	}
	m.slots.Store(new([]atomic.Pointer[memNode]))
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Node registers (or returns) the transport endpoint of node id, which
// must not be negative.
func (m *MemNet) Node(id int) Transport {
	if id < 0 {
		panic(fmt.Sprintf("cluster: MemNet node id %d is negative", id))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	slots := *m.slots.Load()
	if id >= len(slots) {
		// Senders holding the old table still find every node in it; a
		// node registered from here on is in the new one only.
		grown := make([]atomic.Pointer[memNode], max(2*len(slots), id+1))
		for i := range slots {
			grown[i].Store(slots[i].Load())
		}
		m.slots.Store(&grown)
		slots = grown
	}
	node := slots[id].Load()
	if node == nil {
		node = &memNode{inbox: make(chan delivery, m.buffer), done: make(chan struct{})}
		slots[id].Store(node)
	}
	return &memTransport{net: m, id: id, node: node}
}

// lookup returns node id, or nil if it was never registered.
func (m *MemNet) lookup(id int) *memNode {
	slots := *m.slots.Load()
	if id < 0 || id >= len(slots) {
		return nil
	}
	return slots[id].Load()
}

// memTransport is a node's endpoint into a MemNet.
type memTransport struct {
	net  *MemNet
	id   int
	node *memNode
}

var _ Transport = (*memTransport)(nil)

func (t *memTransport) Send(ctx context.Context, to int, env Envelope) (int, error) {
	n, err := wire.FrameSize(t.net.codec, env)
	if err != nil {
		return 0, fmt.Errorf("cluster: send to %d: %w", to, err)
	}
	if t.node.closed.Load() {
		return 0, fmt.Errorf("%w (node %d)", ErrClosed, t.id)
	}
	dst := t.net.lookup(to)
	if dst == nil || dst.closed.Load() {
		return 0, fmt.Errorf("%w: %d", ErrUnknownNode, to)
	}

	// The context is polled first, so a canceled one wins over a free
	// slot, and a non-blocking receive takes no lock while it is live.
	// The blocking select, which locks the context's Done channel with
	// the inbox's, runs only when the inbox is full; the drivers give
	// each node a context of its own, so no other node takes that lock.
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

func (t *memTransport) Recv(ctx context.Context) (Envelope, int, error) {
	node := t.node
	if node.closed.Load() {
		return Envelope{}, 0, fmt.Errorf("%w (node %d)", ErrClosed, t.id)
	}
	// Same order as Send: the context, then the inbox without blocking,
	// and the blocking select only when the inbox is empty.
	select {
	case <-ctx.Done():
		return Envelope{}, 0, fmt.Errorf("cluster: recv on %d: %w", t.id, ctx.Err())
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
		return Envelope{}, 0, fmt.Errorf("%w (node %d)", ErrClosed, t.id)
	case <-ctx.Done():
		return Envelope{}, 0, fmt.Errorf("cluster: recv on %d: %w", t.id, ctx.Err())
	}
}

func (t *memTransport) Close() error {
	if t.node.closed.CompareAndSwap(false, true) {
		close(t.node.done)
	}
	return nil
}
