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
// identical byte counts without re-encoding. A delivery with a nil
// payload is a wake, which no real frame can be, since FrameSize
// refuses one: it only makes a blocked receive look again at its node
// and its context.
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
// A message costs one channel handoff. A Recv that finds its inbox
// empty waits on the inbox alone: Close, and the end of the context the
// Recv waits on, each put a wake into the inbox without blocking. The
// wake of a context is armed when a Recv is about to block, once per
// distinct context, so a driver that receives on one context until its
// deadline pays for it once. A Recv skips wakes, including those an
// earlier context left behind. A node's receives must therefore come
// from one goroutine at a time, or a wake could reach the wrong one.
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

// memNode is one registered endpoint of a MemNet.
type memNode struct {
	inbox  chan delivery
	closed atomic.Bool
}

// wake puts a wake into n's inbox unless it is full; a full inbox has a
// message for the receiver, which looks at its node and its context
// again before it next waits.
func (n *memNode) wake() {
	select {
	case n.inbox <- delivery{}:
	default:
	}
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
		node = &memNode{inbox: make(chan delivery, m.buffer)}
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
	// armed is the Done channel of the context whose end wakes node, and
	// disarm stops that; only Recv touches them.
	armed  <-chan struct{}
	disarm func() bool
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
	for {
		// Same order as Send: the node and the context, then the inbox
		// without blocking, and the blocking wait only when it is empty.
		if node.closed.Load() {
			return Envelope{}, 0, fmt.Errorf("%w (node %d)", ErrClosed, t.id)
		}
		select {
		case <-ctx.Done():
			return Envelope{}, 0, fmt.Errorf("cluster: recv on %d: %w", t.id, ctx.Err())
		default:
		}
		var d delivery
		select {
		case d = <-node.inbox:
		default:
			t.arm(ctx)
			d = <-node.inbox
		}
		if d.env.Msg != nil {
			return d.env, d.n, nil
		}
	}
}

// arm makes the end of ctx wake this node, unless it already does or
// ctx never ends.
func (t *memTransport) arm(ctx context.Context) {
	done := ctx.Done()
	if done == nil || done == t.armed {
		return
	}
	if t.disarm != nil {
		t.disarm()
	}
	t.armed, t.disarm = done, context.AfterFunc(ctx, t.node.wake)
}

func (t *memTransport) Close() error {
	if t.node.closed.CompareAndSwap(false, true) {
		t.node.wake()
	}
	return nil
}
