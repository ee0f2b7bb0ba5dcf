package cluster

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"dolbie/internal/metrics"
	"dolbie/internal/wire"
)

// Reliable wraps a lossy Transport with acknowledgements, deduplication,
// and retransmission, turning at-most-once delivery (e.g. a Chaos
// transport that drops frames, or a radio link) into at-least-once
// delivery with duplicate suppression — effectively exactly-once for the
// protocol layer. DOLBIE's one-message-per-phase pattern stalls forever
// on a single dropped message, so this wrapper is what makes deployments
// survive lossy networks (see the lossy deployment tests).
//
// Wire format: every data frame carries a per-destination sequence
// number; the receiver acks each frame and suppresses already-seen
// sequence numbers. Unacked frames are retransmitted on a fixed
// interval until acked or closed. Frames travel as wire.ReliableFrame
// payloads of the inner transport — the reliability layer itself does
// no encoding, so its overhead under the binary codec is 18 bytes per
// data frame plus a 23-byte ack frame.
type Reliable struct {
	inner Transport
	id    int

	retryEvery time.Duration

	mu       sync.Mutex
	nextSeq  map[int]uint64                        // per-destination next sequence number
	unacked  map[int]map[uint64]wire.ReliableFrame // per-destination in-flight frames
	expected map[int]uint64                        // per-sender next in-order sequence
	reorder  map[int]map[uint64]delivery           // per-sender out-of-order buffer
	closed   bool

	delivered chan delivery
	done      chan struct{}
	innerDead chan struct{} // closed when the inner transport dies mid-run
	innerErr  error         // the fatal inner error; set before innerDead closes
	wg        sync.WaitGroup

	retrans *metrics.Counter // frames re-sent by the retry loop; nil when uninstrumented
	dups    *metrics.Counter // duplicate frames suppressed; nil when uninstrumented
}

// NewReliable wraps the transport endpoint of node id. retryEvery <= 0
// defaults to 50ms. Close the Reliable (not the inner transport) to shut
// down cleanly.
func NewReliable(id int, inner Transport, retryEvery time.Duration) *Reliable {
	return NewReliableWithMetrics(id, inner, retryEvery, nil)
}

// NewReliableWithMetrics is NewReliable with registry-backed counters
// for the reliability layer's retransmissions and suppressed duplicate
// frames (labeled by node id). A nil registry behaves like NewReliable.
func NewReliableWithMetrics(id int, inner Transport, retryEvery time.Duration, reg *metrics.Registry) *Reliable {
	if retryEvery <= 0 {
		retryEvery = 50 * time.Millisecond
	}
	r := &Reliable{
		inner:      inner,
		id:         id,
		retryEvery: retryEvery,
		nextSeq:    make(map[int]uint64),
		unacked:    make(map[int]map[uint64]wire.ReliableFrame),
		expected:   make(map[int]uint64),
		reorder:    make(map[int]map[uint64]delivery),
		delivered:  make(chan delivery, 1024),
		done:       make(chan struct{}),
		innerDead:  make(chan struct{}),
	}
	if reg != nil {
		node := strconv.Itoa(id)
		r.retrans = reg.CounterVec(MetricRetransmissions, "Frames re-sent by the reliability layer.", "node").WithLabelValues(node)
		r.dups = reg.CounterVec(MetricDuplicateFrames, "Duplicate frames suppressed by the reliability layer.", "node").WithLabelValues(node)
	}
	r.wg.Add(2)
	go r.recvLoop()
	go r.retryLoop()
	return r
}

var _ Transport = (*Reliable)(nil)

// Send implements Transport: the frame is buffered for retransmission
// until the receiver acknowledges it. The returned size is the wrapped
// frame as the inner transport encoded it.
func (r *Reliable) Send(ctx context.Context, to int, env Envelope) (int, error) {
	select {
	case <-r.innerDead:
		return 0, fmt.Errorf("cluster: reliable node %d: inner transport: %w", r.id, r.innerErr)
	default:
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, fmt.Errorf("%w (reliable node %d)", ErrClosed, r.id)
	}
	seq := r.nextSeq[to]
	r.nextSeq[to] = seq + 1
	frame := wire.ReliableFrame{Seq: seq, Data: &env}
	if r.unacked[to] == nil {
		r.unacked[to] = make(map[uint64]wire.ReliableFrame)
	}
	r.unacked[to][seq] = frame
	r.mu.Unlock()

	// A send error here is fine: the retry loop re-sends until acked.
	n, err := r.inner.Send(ctx, to, wire.NewEnvelope(r.id, to, frame))
	if err != nil && ctx.Err() != nil {
		return n, err
	}
	return n, nil
}

// Recv implements Transport: it yields deduplicated data frames. If the
// inner transport dies mid-run (for example a chaos-injected node
// crash), already-delivered frames are drained first and then the inner
// error is propagated, so the node run loop sees the failure instead of
// blocking forever.
func (r *Reliable) Recv(ctx context.Context) (Envelope, int, error) {
	// Prefer buffered deliveries over the death signal.
	select {
	case d := <-r.delivered:
		return d.env, d.n, nil
	default:
	}
	select {
	case d := <-r.delivered:
		return d.env, d.n, nil
	case <-r.innerDead:
		return Envelope{}, 0, fmt.Errorf("cluster: reliable node %d: inner transport: %w", r.id, r.innerErr)
	case <-r.done:
		return Envelope{}, 0, fmt.Errorf("%w (reliable node %d)", ErrClosed, r.id)
	case <-ctx.Done():
		return Envelope{}, 0, fmt.Errorf("cluster: reliable recv on %d: %w", r.id, ctx.Err())
	}
}

// Close stops the reliability layer and closes the inner transport.
func (r *Reliable) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	close(r.done)
	err := r.inner.Close()
	r.wg.Wait()
	return err
}

// recvLoop pulls frames off the inner transport, acks data, suppresses
// duplicates, and processes acks.
func (r *Reliable) recvLoop() {
	defer r.wg.Done()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-r.done
		cancel()
	}()
	for {
		env, size, err := r.inner.Recv(ctx)
		if err != nil {
			if ctx.Err() == nil {
				// The inner transport failed on its own (not our shutdown):
				// surface the error to Recv callers.
				r.innerErr = err
				close(r.innerDead)
			}
			return
		}
		frame, ok := env.Msg.(wire.ReliableFrame)
		if !ok {
			// Interop: pass through unwrapped traffic (a peer not using
			// the reliability layer).
			select {
			case r.delivered <- delivery{env: env, n: size}:
			case <-r.done:
				return
			}
			continue
		}
		from := env.From
		if frame.Ack {
			r.mu.Lock()
			if m := r.unacked[from]; m != nil {
				delete(m, frame.Seq)
			}
			r.mu.Unlock()
			continue
		}
		// Data frame: always (re-)ack, then deliver in per-sender sequence
		// order. Frames ahead of the expected sequence wait in a reorder
		// buffer so a retransmitted early frame cannot be overtaken by a
		// later one — preserving the FIFO property the protocol state
		// machines rely on.
		ack := wire.NewEnvelope(r.id, from, wire.ReliableFrame{Seq: frame.Seq, Ack: true})
		//nolint:errcheck // best-effort; sender retransmits on loss
		r.inner.Send(ctx, from, ack)
		if frame.Data == nil {
			continue
		}
		r.mu.Lock()
		exp := r.expected[from]
		var ready []delivery
		switch {
		case frame.Seq < exp:
			// Duplicate of an already-delivered frame; ack was enough.
			if r.dups != nil {
				r.dups.Inc()
			}
		case frame.Seq > exp:
			if r.reorder[from] == nil {
				r.reorder[from] = make(map[uint64]delivery)
			}
			r.reorder[from][frame.Seq] = delivery{env: *frame.Data, n: size}
		default:
			ready = append(ready, delivery{env: *frame.Data, n: size})
			exp++
			for {
				buffered, ok := r.reorder[from][exp]
				if !ok {
					break
				}
				delete(r.reorder[from], exp)
				ready = append(ready, buffered)
				exp++
			}
			r.expected[from] = exp
		}
		r.mu.Unlock()
		for _, d := range ready {
			select {
			case r.delivered <- d:
			case <-r.done:
				return
			}
		}
	}
}

// retryLoop retransmits unacked frames on the retry interval.
func (r *Reliable) retryLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.retryEvery)
	defer ticker.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-r.done
		cancel()
	}()
	for {
		select {
		case <-r.done:
			return
		case <-ticker.C:
		}
		r.mu.Lock()
		type pending struct {
			to    int
			frame wire.ReliableFrame
		}
		var frames []pending
		for to, m := range r.unacked {
			for _, f := range m {
				frames = append(frames, pending{to: to, frame: f})
			}
		}
		r.mu.Unlock()
		for _, p := range frames {
			if r.retrans != nil {
				r.retrans.Inc()
			}
			//nolint:errcheck // best-effort; retried on the next tick
			r.inner.Send(ctx, p.to, wire.NewEnvelope(r.id, p.to, p.frame))
		}
	}
}
