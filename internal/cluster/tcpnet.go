package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dolbie/internal/wire"
)

// maxFrame bounds a single wire frame; DOLBIE messages are tiny scalars,
// so anything near this limit indicates corruption. The limit is owned
// by the wire layer and enforced before a declared body is read.
const maxFrame = wire.MaxFrame

// TCPNode is a Transport backed by real TCP sockets: one listener for
// inbound traffic and one lazily-dialed outbound connection per peer,
// carrying length-prefixed frames in the node's configured wire codec
// (compact binary by default; see WithTCPCodec). Per-peer ordering is
// inherited from TCP; the protocol state machines tolerate cross-peer
// interleaving.
type TCPNode struct {
	id    int
	ln    net.Listener
	inbox chan delivery
	codec wire.Codec

	mu         sync.Mutex
	registry   map[int]string
	conns      map[int]net.Conn
	inbound    map[net.Conn]struct{}
	closed     bool
	frameErrs  int
	lastFrmErr error

	done chan struct{}
	wg   sync.WaitGroup
}

var _ Transport = (*TCPNode)(nil)

// TCPOption configures a TCPNode at listen time.
type TCPOption func(*TCPNode)

// WithTCPCodec selects the wire codec for all of the node's
// connections (default wire.Default). Every node in a deployment must
// use the same codec; a mismatched peer's frames fail decoding with a
// descriptive error (see FrameErrors) and its connection is dropped.
// A nil codec is ignored.
func WithTCPCodec(c wire.Codec) TCPOption {
	return func(n *TCPNode) {
		if c != nil {
			n.codec = c
		}
	}
}

// ListenTCP starts node id listening on addr (use "127.0.0.1:0" to pick a
// free port; read the chosen address back with Addr).
func ListenTCP(id int, addr string, opts ...TCPOption) (*TCPNode, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d listen: %w", id, err)
	}
	n := &TCPNode{
		id:       id,
		ln:       ln,
		inbox:    make(chan delivery, 1024),
		codec:    wire.Default,
		registry: make(map[int]string),
		conns:    make(map[int]net.Conn),
		inbound:  make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
	for _, opt := range opts {
		opt(n)
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's listen address for registry exchange.
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

// SetRegistry installs the id -> address table used to dial peers.
func (n *TCPNode) SetRegistry(registry map[int]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.registry = make(map[int]string, len(registry))
	for id, addr := range registry {
		n.registry[id] = addr
	}
}

// FrameErrors reports how many inbound frames failed to decode (corrupt
// bytes, oversized declarations, codec/version mismatches) and the last
// such error. Each failure drops the offending connection.
func (n *TCPNode) FrameErrors() (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.frameErrs, n.lastFrmErr
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close() //nolint:errcheck // refusing conn during shutdown
			return
		}
		n.inbound[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

func (n *TCPNode) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
		conn.Close() //nolint:errcheck // best-effort teardown of inbound conn
	}()
	for {
		env, size, err := wire.ReadFrame(conn, n.codec)
		if err != nil {
			n.recordFrameErr(err)
			return // drop the connection; peer redials with clean framing
		}
		select {
		case n.inbox <- delivery{env: env, n: size}:
		case <-n.done:
			return
		}
	}
}

// recordFrameErr counts a failed inbound frame, ignoring the ordinary
// ways a connection ends (EOF, peer reset, local close).
func (n *TCPNode) recordFrameErr(err error) {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return
	}
	n.mu.Lock()
	n.frameErrs++
	n.lastFrmErr = err
	n.mu.Unlock()
}

// Send implements Transport.
func (n *TCPNode) Send(ctx context.Context, to int, env Envelope) (int, error) {
	conn, err := n.conn(to)
	if err != nil {
		return 0, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		if err := conn.SetWriteDeadline(deadline); err != nil {
			return 0, fmt.Errorf("cluster: node %d set deadline: %w", n.id, err)
		}
	} else if err := conn.SetWriteDeadline(time.Time{}); err != nil {
		return 0, fmt.Errorf("cluster: node %d clear deadline: %w", n.id, err)
	}
	size, err := wire.WriteFrame(conn, n.codec, env)
	if err != nil {
		// Drop the connection so the next Send redials.
		n.dropConn(to, conn)
		return size, fmt.Errorf("cluster: node %d send to %d: %w", n.id, to, err)
	}
	return size, nil
}

func (n *TCPNode) conn(to int) (net.Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("%w (node %d)", ErrClosed, n.id)
	}
	if c, ok := n.conns[to]; ok {
		return c, nil
	}
	addr, ok := n.registry[to]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, to)
	}
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d dial %d (%s): %w", n.id, to, addr, err)
	}
	n.conns[to] = c
	return c, nil
}

func (n *TCPNode) dropConn(to int, conn net.Conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.conns[to] == conn {
		delete(n.conns, to)
	}
	conn.Close() //nolint:errcheck // already failed; best-effort close
}

// Recv implements Transport. A canceled context wins over a closed
// node, and either wins over a ready message: Recv then returns the
// context's error or ErrClosed.
func (n *TCPNode) Recv(ctx context.Context) (Envelope, int, error) {
	select {
	case <-ctx.Done():
		return Envelope{}, 0, fmt.Errorf("cluster: recv on %d: %w", n.id, ctx.Err())
	default:
	}
	select {
	case <-n.done:
		return Envelope{}, 0, fmt.Errorf("%w (node %d)", ErrClosed, n.id)
	default:
	}
	select {
	case d := <-n.inbox:
		return d.env, d.n, nil
	default:
	}
	select {
	case d := <-n.inbox:
		return d.env, d.n, nil
	case <-n.done:
		return Envelope{}, 0, fmt.Errorf("%w (node %d)", ErrClosed, n.id)
	case <-ctx.Done():
		return Envelope{}, 0, fmt.Errorf("cluster: recv on %d: %w", n.id, ctx.Err())
	}
}

// Close implements Transport: it stops the accept loop, tears down all
// connections, and waits for reader goroutines to drain.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := n.conns
	n.conns = map[int]net.Conn{}
	inbound := make([]net.Conn, 0, len(n.inbound))
	for c := range n.inbound {
		inbound = append(inbound, c)
	}
	n.mu.Unlock()

	close(n.done)
	err := n.ln.Close()
	for _, c := range conns {
		c.Close() //nolint:errcheck // best-effort teardown
	}
	for _, c := range inbound {
		c.Close() //nolint:errcheck // unblock reader goroutines
	}
	n.wg.Wait()
	if err != nil {
		return fmt.Errorf("cluster: node %d close: %w", n.id, err)
	}
	return nil
}
