package cluster

import (
	"context"
	"errors"
	"sync"

	"dolbie/internal/metrics"
)

// Transport is one node's connection to the rest of the deployment.
// Send and Recv report the envelope's on-the-wire frame size so callers
// (Meter in particular) can account traffic without re-encoding
// anything; the size is whatever the transport's codec actually framed.
// Implementations must be safe for one concurrent sender and one
// concurrent receiver (the node run loops are sequential, but metrics
// wrappers and tests may probe concurrently).
type Transport interface {
	// Send delivers an envelope to node `to`, returning the encoded frame
	// size in bytes. It returns once the message is accepted for delivery
	// (not once it is processed).
	Send(ctx context.Context, to int, env Envelope) (int, error)
	// Recv blocks for the next incoming envelope and returns it together
	// with its frame size in bytes. On MemNet and TCPNode a canceled
	// context or a closed node wins over a ready message: Recv then
	// returns the context's error or ErrClosed. Of the wrappers,
	// Reliable returns deliveries it has already buffered before
	// either, and a Chaos.Wrap endpoint returns released deliveries
	// before it checks the context.
	Recv(ctx context.Context) (Envelope, int, error)
	// Close releases the node's resources; pending Recv calls unblock
	// with ErrClosed.
	Close() error
}

// ErrClosed is returned by transport operations after Close.
var ErrClosed = errors.New("cluster: transport closed")

// ErrUnknownNode is returned when sending to an unregistered node.
var ErrUnknownNode = errors.New("cluster: unknown node")

// nodeGone reports whether err, from a send or receive, means that the
// caller's context or this node's own transport is gone, which ends a
// driver's run, rather than that the other end failed, which under a
// deadline evicts it.
func nodeGone(ctx context.Context, err error) bool {
	return ctx.Err() != nil || errors.Is(err, ErrChaosCrashed) || errors.Is(err, ErrClosed)
}

// TrafficStats counts a node's protocol traffic. All counters are totals
// since construction. It remains the per-run snapshot embedded in the
// deployment results; live scraping goes through the registry-backed
// counters of an instrumented Meter (see NewInstrumentedMeter and the
// README's Observability section).
type TrafficStats struct {
	MsgsSent     int
	MsgsReceived int
	BytesSent    int
	BytesRecv    int
}

// Meter wraps a Transport and counts messages and bytes in both
// directions — always into a TrafficStats snapshot, and additionally
// into registry-backed dolbie_cluster_* counter families when
// constructed with NewInstrumentedMeter. Byte counts come from the
// frame sizes the wrapped transport reports, so metering adds no
// marshaling work. It is safe for concurrent use.
type Meter struct {
	inner Transport
	nm    *netMetrics // nil when not registry-backed

	mu    sync.Mutex
	stats TrafficStats
}

var _ Transport = (*Meter)(nil)

// NewMeter wraps a transport with snapshot-only traffic accounting.
func NewMeter(inner Transport) *Meter { return &Meter{inner: inner} }

// NewInstrumentedMeter wraps a transport with traffic accounting that
// additionally feeds the registry-backed dolbie_cluster_* counters,
// labeling per-node families with node (e.g. "master", "worker-3").
// A nil registry degrades to NewMeter.
func NewInstrumentedMeter(inner Transport, reg *metrics.Registry, node string) *Meter {
	return &Meter{inner: inner, nm: newNetMetrics(reg, node)}
}

// Send implements Transport.
func (m *Meter) Send(ctx context.Context, to int, env Envelope) (int, error) {
	n, err := m.inner.Send(ctx, to, env)
	if err != nil {
		return n, err
	}
	m.mu.Lock()
	m.stats.MsgsSent++
	m.stats.BytesSent += n
	m.mu.Unlock()
	m.nm.recordSend(env, n)
	return n, nil
}

// Recv implements Transport.
func (m *Meter) Recv(ctx context.Context) (Envelope, int, error) {
	env, n, err := m.inner.Recv(ctx)
	if err != nil {
		return env, n, err
	}
	m.mu.Lock()
	m.stats.MsgsReceived++
	m.stats.BytesRecv += n
	m.mu.Unlock()
	m.nm.recordRecv(env, n)
	return env, n, nil
}

// Close implements Transport.
func (m *Meter) Close() error { return m.inner.Close() }

// Stats returns a snapshot of the counters.
func (m *Meter) Stats() TrafficStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
