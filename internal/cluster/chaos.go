package cluster

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/metrics"
	"dolbie/internal/trace"
	"dolbie/internal/wire"
)

// ErrChaosCrashed is returned by a chaos-wrapped transport after its
// injected crash round is reached: the node is fail-stopped and every
// subsequent Send and Recv fails with this error.
var ErrChaosCrashed = errors.New("cluster: node crashed (chaos-injected)")

// ChaosPartition severs the directed link From -> To for every protocol
// message belonging to a round in [FromRound, ToRound] (inclusive).
// Filtering is by the message's own round, so the fault is deterministic
// regardless of timing; an asymmetric partition is simply a single
// direction (add the mirrored entry for a symmetric one). Messages
// without a round of their own (reliability-layer acks) use the link's
// highest round observed so far.
//
// Note that a round-gated partition never "heals" for the frames it
// caught: a round-R frame stays filtered forever because its round never
// changes, and the reliability layer's in-order delivery will not let
// later frames overtake it. Recovery is therefore the fail-stop
// protocol's job — the receiving side's collection deadline expires, the
// silent peer is evicted, and the survivors continue (see
// RunElasticPeer). This mirrors how a real outage longer than a
// collection phase plays out.
type ChaosPartition struct {
	From, To  int
	FromRound int
	ToRound   int
}

// ChaosCrash fail-stops Node the moment it first tries to send a
// protocol message belonging to a round >= Round: no message of that
// round (or any later one) leaves the node, and its transport returns
// ErrChaosCrashed from then on. Gating on the node's own sends — never
// on inbound traffic from peers that may already be a round ahead —
// pins the crash point to the node's own protocol progress: the victim
// always finishes round Round-1 completely and then dies, no matter how
// goroutines are scheduled.
type ChaosCrash struct {
	Node  int
	Round int
}

// ChaosConfig parameterizes a Chaos controller. The zero value injects
// nothing; every field composes independently.
//
// Drop, duplicate, and reorder faults forge at-most-once / more-than-once
// delivery, which the DOLBIE state machines do not tolerate on their own:
// wrap the chaos transport with Reliable (stack order
// Reliable(Chaos(inner))) so the reliability layer masks them. Delay,
// jitter, partitions, and crashes are safe on a bare transport.
type ChaosConfig struct {
	// Seed drives every probabilistic decision. Fault decisions are pure
	// functions of (Seed, link, message identity, delivery attempt), so
	// two runs with the same seed and traffic inject the same faults. A
	// reliability frame's attempt counts its dropped copies until one
	// passes; a copy of a frame that already passed (a retransmission
	// that raced its ack) takes its stream's count of such copies, and a
	// bare message, never retransmitted, always has its first attempt.
	Seed int64
	// Delay defers every delivery by this base latency.
	Delay time.Duration
	// DelayModel, when non-nil, turns the constant Delay into a
	// time-varying per-link latency: it is called once per directed link
	// (from, to) the first time a message of that link reaches node
	// `to`, and the returned process is sampled once per delivery
	// attempt. Each sample is interpreted in seconds, clamped at zero,
	// and added on top of Delay. geo.Config.LinkDelay is the matching
	// factory, which is how chaos drills and geo RTTs share one source
	// of truth. The processes run exclusively on the receiving node's
	// pump goroutine, so trace.Process implementations need no locking;
	// nil leaves the constant-Delay path untouched, bit for bit.
	DelayModel func(from, to int) trace.Process
	// Jitter adds a deterministic per-message fraction of itself on top
	// of Delay.
	Jitter time.Duration
	// DropProb drops each delivery attempt independently. Requires a
	// Reliable wrapper above the chaos transport.
	DropProb float64
	// DuplicateProb delivers the message a second time. Requires a
	// Reliable wrapper above the chaos transport.
	DuplicateProb float64
	// ReorderProb holds the message back long enough for later traffic on
	// the same link to overtake it. Requires a Reliable wrapper above the
	// chaos transport (which restores per-sender order, exercising its
	// reorder buffer).
	ReorderProb float64
	// Partitions lists round-gated directed link cuts.
	Partitions []ChaosPartition
	// Crashes lists round-gated fail-stop node crashes.
	Crashes []ChaosCrash
	// Metrics, when non-nil, counts every injected fault in the
	// dolbie_cluster_chaos_faults_total family, labeled by fault class
	// and node.
	Metrics *metrics.Registry
}

// ChaosStats counts the faults a Chaos controller actually injected,
// summed over all wrapped nodes.
type ChaosStats struct {
	Drops          int
	Duplicates     int
	Reorders       int
	PartitionDrops int
	Crashes        int
}

// Chaos deterministically injects network and node faults into a
// deployment. One controller is shared by all nodes of a deployment
// (Wrap each node's transport); it keeps the aggregate fault counts and
// the optional registry-backed counters. All methods are safe for
// concurrent use.
type Chaos struct {
	cfg    ChaosConfig
	faults *metrics.CounterVec // nil when uninstrumented

	mu    sync.Mutex
	stats ChaosStats
}

// NewChaos builds a controller from cfg.
func NewChaos(cfg ChaosConfig) *Chaos {
	c := &Chaos{cfg: cfg}
	if cfg.Metrics != nil {
		c.faults = cfg.Metrics.CounterVec(MetricChaosFaults,
			"Faults injected by the chaos transport wrapper.", "fault", "node")
	}
	return c
}

// Stats snapshots the injected-fault counters.
func (c *Chaos) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Chaos) record(node int, class string) {
	c.mu.Lock()
	switch class {
	case "drop":
		c.stats.Drops++
	case "duplicate":
		c.stats.Duplicates++
	case "reorder":
		c.stats.Reorders++
	case "partition":
		c.stats.PartitionDrops++
	case "crash":
		c.stats.Crashes++
	}
	c.mu.Unlock()
	if c.faults != nil {
		c.faults.WithLabelValues(class, strconv.Itoa(node)).Inc()
	}
}

// Wrap decorates node id's transport endpoint with the controller's
// fault injection. Network faults are applied on the receive side and
// the crash trigger on the send side, so the wrapper composes with any
// inner transport — MemNet or TCP — without touching its framing.
func (c *Chaos) Wrap(id int, inner Transport) Transport {
	t := &chaosTransport{
		ctrl:       c,
		id:         id,
		inner:      inner,
		crashRound: c.cfg.crashRound(id),
		linkDelay:  make(map[int]trace.Process),
		attempts:   make(map[chaosMsgKey]uint64),
		passed:     make(map[chaosStream]*seqWindow),
		highRound:  make(map[int]int),
		wake:       make(chan struct{}, 1),
		crashedCh:  make(chan struct{}),
		pumpDone:   make(chan struct{}),
	}
	t.pumpCtx, t.pumpCancel = context.WithCancel(context.Background())
	go t.pump()
	return t
}

// WrapAll decorates transports[i] as node i for a whole deployment.
func (c *Chaos) WrapAll(transports []Transport) []Transport {
	out := make([]Transport, len(transports))
	for i, tr := range transports {
		out[i] = c.Wrap(i, tr)
	}
	return out
}

// chaosMsgKey identifies one protocol message on one inbound link, so a
// retransmission of the same frame is recognized as a new delivery
// attempt of the same message (and gets a fresh, but still seed-
// deterministic, fault decision).
type chaosMsgKey struct {
	from  int
	kind  wire.Kind
	seq   uint64 // reliability-layer sequence, 0 otherwise
	round int    // protocol round, 0 for acks
}

// chaosTransport is one node's fault-injecting endpoint. A pump
// goroutine drains the inner transport immediately and schedules
// deliveries onto a release-time heap; Recv serves the heap in release
// order, which is how delays, jitter, and reordering materialize.
type chaosTransport struct {
	ctrl       *Chaos
	id         int
	inner      Transport
	crashRound int // -1: never crashes

	pumpCtx    context.Context
	pumpCancel context.CancelFunc
	pumpDone   chan struct{}
	pumpErr    error // set before pumpDone closes

	// linkDelay holds the per-link latency processes built lazily from
	// ChaosConfig.DelayModel, keyed by sender. Touched only by the pump
	// goroutine, so no lock guards it and the processes themselves never
	// see concurrent Next calls.
	linkDelay map[int]trace.Process

	mu sync.Mutex
	// attempts counts the dropped copies of each reliability frame that
	// has not passed the drop filter yet, so a retransmission rolls
	// afresh; passed records, per inbound stream, the frames that have.
	// Copies of passed frames keep no per-frame state, so both hold only
	// frames still in flight.
	attempts  map[chaosMsgKey]uint64
	passed    map[chaosStream]*seqWindow
	highRound map[int]int // per-link highest round seen (for roundless frames)
	heap      chaosHeap
	heapSeq   uint64
	crashed   bool
	closed    bool

	wake      chan struct{} // signaled when the heap gains an earlier item
	crashedCh chan struct{} // closed on injected crash
}

var _ Transport = (*chaosTransport)(nil)

// Send implements Transport. Outbound traffic passes through untouched
// (faults are injected at the receiver), but sending a message of the
// crash round or later trips this node's injected crash first, so a
// crashing node never emits any message of its crash round.
func (t *chaosTransport) Send(ctx context.Context, to int, env Envelope) (int, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return 0, fmt.Errorf("%w (chaos node %d)", ErrClosed, t.id)
	}
	if !t.crashed && t.crashRound >= 0 {
		if round, ok := chaosRound(env); ok && round >= t.crashRound {
			t.crashLocked()
		}
	}
	if t.crashed {
		t.mu.Unlock()
		return 0, fmt.Errorf("%w (node %d)", ErrChaosCrashed, t.id)
	}
	t.mu.Unlock()
	return t.inner.Send(ctx, to, env)
}

// Recv implements Transport: it blocks until the earliest scheduled
// delivery is released, the node crashes, or the transport dies.
func (t *chaosTransport) Recv(ctx context.Context) (Envelope, int, error) {
	for {
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return Envelope{}, 0, fmt.Errorf("%w (chaos node %d)", ErrClosed, t.id)
		}
		if t.crashed {
			t.mu.Unlock()
			return Envelope{}, 0, fmt.Errorf("%w (node %d)", ErrChaosCrashed, t.id)
		}
		var wait time.Duration = -1
		if len(t.heap) > 0 {
			now := time.Now()
			if !t.heap[0].releaseAt.After(now) {
				d := heap.Pop(&t.heap).(chaosItem).d
				t.mu.Unlock()
				return d.env, d.n, nil
			}
			wait = t.heap[0].releaseAt.Sub(now)
		}
		pumpDead := false
		select {
		case <-t.pumpDone:
			pumpDead = true
		default:
		}
		if pumpDead && len(t.heap) == 0 {
			err := t.pumpErr
			t.mu.Unlock()
			return Envelope{}, 0, err
		}
		t.mu.Unlock()

		if wait >= 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-t.wake:
				timer.Stop()
			case <-t.crashedCh:
				timer.Stop()
			case <-ctx.Done():
				timer.Stop()
				return Envelope{}, 0, fmt.Errorf("cluster: chaos recv on %d: %w", t.id, ctx.Err())
			}
			continue
		}
		select {
		case <-t.wake:
		case <-t.crashedCh:
		case <-t.pumpDone:
		case <-ctx.Done():
			return Envelope{}, 0, fmt.Errorf("cluster: chaos recv on %d: %w", t.id, ctx.Err())
		}
	}
}

// Close implements Transport: it stops the pump and closes the inner
// transport.
func (t *chaosTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	t.pumpCancel()
	err := t.inner.Close()
	<-t.pumpDone
	return err
}

// crashLocked fail-stops the node. Caller holds t.mu.
func (t *chaosTransport) crashLocked() {
	if t.crashed {
		return
	}
	t.crashed = true
	t.heap = nil
	close(t.crashedCh)
	t.ctrl.record(t.id, "crash")
}

// pump drains the inner transport and applies the receive-side fault
// pipeline: partition filter, drop, duplicate, reorder, delay. After a
// crash it keeps draining (and discarding) inbound
// traffic so senders that have not yet detected the crash are never
// blocked on a full inbox.
func (t *chaosTransport) pump() {
	defer close(t.pumpDone)
	for {
		env, n, err := t.inner.Recv(t.pumpCtx)
		if err != nil {
			t.pumpErr = err
			return
		}
		t.mu.Lock()
		if t.crashed {
			t.mu.Unlock()
			continue // dead node: swallow inbound silently
		}
		round, hasRound := chaosRound(env)
		if hasRound {
			if round > t.highRound[env.From] {
				t.highRound[env.From] = round
			}
		} else {
			round = t.highRound[env.From]
		}
		if t.ctrl.cfg.partitioned(env.From, t.id, round) {
			t.mu.Unlock()
			t.ctrl.record(t.id, "partition")
			continue
		}
		key := chaosKeyFor(env, round)
		cfg := &t.ctrl.cfg
		w := t.window(env)
		inFlight := w != nil && !w.has(key.seq)
		var attempt uint64 // a bare message is never retransmitted: one attempt
		switch {
		case inFlight:
			attempt = t.attempts[key]
		case w != nil:
			attempt = w.copies
			w.copies++
		}
		dropped := cfg.DropProb > 0 && t.roll(key, attempt, 1) < cfg.DropProb
		switch {
		case !inFlight:
		case dropped:
			t.attempts[key] = attempt + 1
		default:
			delete(t.attempts, key)
			w.add(key.seq)
		}
		t.mu.Unlock()
		if dropped {
			t.ctrl.record(t.id, "drop")
			continue
		}
		delay := cfg.delay(t.linkDelay, env.From, t.id)
		if cfg.Jitter > 0 {
			delay += time.Duration(t.roll(key, attempt, 2) * float64(cfg.Jitter))
		}
		if cfg.ReorderProb > 0 && t.roll(key, attempt, 3) < cfg.ReorderProb {
			t.ctrl.record(t.id, "reorder")
			delay += 2*(cfg.Delay+cfg.Jitter) + 500*time.Microsecond
		}
		t.schedule(delivery{env: env, n: n}, delay)
		if cfg.DuplicateProb > 0 && t.roll(key, attempt, 4) < cfg.DuplicateProb {
			t.ctrl.record(t.id, "duplicate")
			t.schedule(delivery{env: env, n: n}, delay+cfg.Delay+cfg.Jitter+500*time.Microsecond)
		}
	}
}

// chaosStream is one inbound sequence space: a sender's reliability
// data frames, or its acks of this node's frames.
type chaosStream struct {
	from int
	ack  bool
}

// seqWindow records which sequence numbers of one stream have passed
// the drop filter: every one below low, and those in above. Sequence
// numbers start at zero and rise by one, so above holds only frames
// that passed ahead of one still in flight.
type seqWindow struct {
	low    uint64
	above  map[uint64]bool
	copies uint64 // copies of passed frames seen: the next copy's attempt
}

func (w *seqWindow) has(seq uint64) bool { return seq < w.low || w.above[seq] }

func (w *seqWindow) add(seq uint64) {
	if seq != w.low {
		w.above[seq] = true
		return
	}
	for w.low++; w.above[w.low]; w.low++ {
		delete(w.above, w.low)
	}
}

// window returns the stream window of a reliability frame, or nil for a
// bare message. Caller holds t.mu.
func (t *chaosTransport) window(env Envelope) *seqWindow {
	frame, ok := env.Msg.(wire.ReliableFrame)
	if !ok {
		return nil
	}
	s := chaosStream{from: env.From, ack: frame.Ack}
	w := t.passed[s]
	if w == nil {
		w = &seqWindow{above: make(map[uint64]bool)}
		t.passed[s] = w
	}
	return w
}

// partitioned reports whether a message of the given round on the link
// from -> to is severed.
func (c *ChaosConfig) partitioned(from, to, round int) bool {
	for _, p := range c.Partitions {
		if p.From == from && p.To == to && round >= p.FromRound && round <= p.ToRound {
			return true
		}
	}
	return false
}

// crashRound is the round whose first send fail-stops node, or -1.
func (c *ChaosConfig) crashRound(node int) int {
	round := -1
	for _, cr := range c.Crashes {
		if cr.Node == node {
			round = cr.Round
		}
	}
	return round
}

// delay is the latency of one delivery attempt on the link from -> to:
// Delay plus the link's DelayModel sample in seconds, clamped at zero.
// procs caches the receiver's link processes by sender; each is built
// on the link's first delivery and sampled once per attempt.
func (c *ChaosConfig) delay(procs map[int]trace.Process, from, to int) time.Duration {
	d := c.Delay
	if c.DelayModel == nil {
		return d
	}
	p, ok := procs[from]
	if !ok {
		p = c.DelayModel(from, to)
		procs[from] = p
	}
	if p != nil {
		if s := p.Next(); s > 0 {
			d += time.Duration(s * float64(time.Second))
		}
	}
	return d
}

// roll returns the deterministic uniform [0,1) draw for fault class
// `tag` of delivery attempt `attempt` of the message identified by key.
func (t *chaosTransport) roll(key chaosMsgKey, attempt uint64, tag uint64) float64 {
	return chaosHash(t.ctrl.cfg.Seed,
		uint64(key.from), uint64(t.id), uint64(key.kind),
		key.seq, uint64(key.round), attempt, tag)
}

func (t *chaosTransport) schedule(d delivery, delay time.Duration) {
	at := time.Now().Add(delay)
	t.mu.Lock()
	if t.crashed || t.closed {
		t.mu.Unlock()
		return
	}
	wasNext := len(t.heap) == 0 || at.Before(t.heap[0].releaseAt)
	heap.Push(&t.heap, chaosItem{d: d, releaseAt: at, seq: t.heapSeq})
	t.heapSeq++
	t.mu.Unlock()
	if wasNext {
		select {
		case t.wake <- struct{}{}:
		default:
		}
	}
}

// chaosKeyFor derives the message identity used for fault decisions.
// Reliability frames are keyed by their sequence number (so every
// retransmission of one frame is an attempt of the same message); bare
// protocol messages are keyed by kind and round.
func chaosKeyFor(env Envelope, round int) chaosMsgKey {
	key := chaosMsgKey{from: env.From, kind: env.Kind, round: round}
	if frame, ok := env.Msg.(wire.ReliableFrame); ok {
		key.seq = frame.Seq
		if frame.Ack {
			key.round = -1 // acks are their own message space
		}
	}
	return key
}

// chaosRound extracts the protocol round a message belongs to,
// unwrapping reliability frames. Acks (and unknown payloads) have none.
func chaosRound(env Envelope) (int, bool) {
	switch m := env.Msg.(type) {
	case core.CostReport:
		return m.Round, true
	case core.Coordinate:
		return m.Round, true
	case core.DecisionReport:
		return m.Round, true
	case core.StragglerAssign:
		return m.Round, true
	case core.PeerShare:
		return m.Round, true
	case core.PeerDecision:
		return m.Round, true
	case core.PeerEvict:
		return m.Round, true
	case core.JoinRequest:
		return m.Round, true
	case core.RosterUpdate:
		return m.Round, true
	case core.PeerAggregate:
		return m.Round, true
	case wire.ReliableFrame:
		if m.Data != nil {
			return chaosRound(*m.Data)
		}
	}
	return 0, false
}

// chaosHash mixes the seed and message identity into a uniform [0,1)
// draw (splitmix64 finalizer per input word). It is the source of the
// wrapper's determinism: the same seed, link, message, attempt, and
// fault class always produce the same decision, no matter how goroutines
// interleave.
func chaosHash(seed int64, parts ...uint64) float64 {
	h := uint64(seed) ^ 0x9E3779B97F4A7C15
	for _, p := range parts {
		h ^= p
		h += 0x9E3779B97F4A7C15
		z := h
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		h = z ^ (z >> 31)
	}
	return float64(h>>11) / float64(1<<53)
}

// chaosItem is one scheduled delivery; the heap releases items by time,
// breaking ties by arrival order so a pure-delay configuration preserves
// per-sender FIFO.
type chaosItem struct {
	d         delivery
	releaseAt time.Time
	seq       uint64
}

type chaosHeap []chaosItem

func (h chaosHeap) Len() int { return len(h) }
func (h chaosHeap) Less(i, j int) bool {
	if h[i].releaseAt.Equal(h[j].releaseAt) {
		return h[i].seq < h[j].seq
	}
	return h[i].releaseAt.Before(h[j].releaseAt)
}
func (h chaosHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *chaosHeap) Push(x any)   { *h = append(*h, x.(chaosItem)) }
func (h *chaosHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
