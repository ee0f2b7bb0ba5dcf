package cluster

import (
	"context"
	"errors"
	"sync/atomic"

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

// TrafficStats counts a node's protocol traffic. All counters are totals
// since construction. It remains the per-run snapshot embedded in the
// deployment results; live scraping goes through the dolbie_cluster_*
// counters an instrumented Meter publishes (see NewInstrumentedMeter and
// the README's Observability section).
type TrafficStats struct {
	MsgsSent     int
	MsgsReceived int
	BytesSent    int
	BytesRecv    int
}

// Meter wraps a Transport and counts messages per kind, and bytes, in
// each direction, in atomic tallies of its own. Stats reads them, and a
// meter built with NewInstrumentedMeter also publishes them to the
// registry's dolbie_cluster_* counter families at every scrape, so a
// message updates no series that other nodes share. Byte counts come
// from the frame sizes the wrapped transport reports, so metering adds
// no marshaling work. It is safe for concurrent use.
type Meter struct {
	inner  Transport
	t      *tally
	nm     *netMetrics // nil when not registry-backed
	unhook func()      // removes nm's scrape hook
}

var _ Transport = (*Meter)(nil)

// NewMeter wraps a transport with snapshot-only traffic accounting.
func NewMeter(inner Transport) *Meter { return &Meter{inner: inner, t: new(tally)} }

// NewInstrumentedMeter wraps a transport with traffic accounting that
// additionally feeds the registry-backed dolbie_cluster_* counters,
// labeling per-node families with node (e.g. "master", "worker-3"). The
// meter publishes its tallies through a registry scrape hook, which
// Close removes after publishing them once more. A nil registry
// degrades to NewMeter.
func NewInstrumentedMeter(inner Transport, reg *metrics.Registry, node string) *Meter {
	m := NewMeter(inner)
	if reg != nil {
		m.nm = newNetMetrics(reg, node, m.t)
		m.unhook = reg.OnCollect(m.nm.publish)
	}
	return m
}

// Send implements Transport.
func (m *Meter) Send(ctx context.Context, to int, env Envelope) (int, error) {
	n, err := m.inner.Send(ctx, to, env)
	if err != nil {
		return n, err
	}
	m.t[dirSent].add(env, n)
	return n, nil
}

// Recv implements Transport.
func (m *Meter) Recv(ctx context.Context) (Envelope, int, error) {
	env, n, err := m.inner.Recv(ctx)
	if err != nil {
		return env, n, err
	}
	m.t[dirReceived].add(env, n)
	return env, n, nil
}

// Close implements Transport: it detaches an instrumented meter from
// its registry, then closes the wrapped transport.
func (m *Meter) Close() error {
	m.detach()
	return m.inner.Close()
}

// detach removes an instrumented meter's scrape hook and publishes its
// tallies a last time, so the registry keeps the final counts and no
// hook of a meter that is done. The drivers detach their meters when
// their run ends, leaving the transport to its caller.
func (m *Meter) detach() {
	if m.nm != nil {
		m.unhook()
		m.nm.publish()
	}
}

// Stats returns a snapshot of the counters.
func (m *Meter) Stats() TrafficStats {
	return TrafficStats{
		MsgsSent:     int(m.t[dirSent].count()),
		MsgsReceived: int(m.t[dirReceived].count()),
		BytesSent:    int(m.t[dirSent].bytes.Load()),
		BytesRecv:    int(m.t[dirReceived].bytes.Load()),
	}
}

// Directions of a tally.
const (
	dirSent = iota
	dirReceived
)

// tally is a meter's traffic in each direction. It is allocated apart
// from its Meter, so the registry hook that reads it keeps neither the
// Meter nor the transport alive.
type tally [2]dirTally

// dirTally counts one direction's messages per wire kind, and bytes.
type dirTally struct {
	msgs  [numKinds]atomic.Uint64
	bytes atomic.Uint64
}

// add counts one envelope of n wire bytes.
func (d *dirTally) add(env Envelope, n int) {
	d.msgs[env.Kind()].Add(1)
	d.bytes.Add(uint64(n))
}

// count is the number of messages of every kind.
func (d *dirTally) count() uint64 {
	var n uint64
	for i := range d.msgs {
		n += d.msgs[i].Load()
	}
	return n
}
