package core

import (
	"fmt"
	"math"

	"dolbie/internal/costfn"
	"dolbie/internal/simplex"
)

// peerPhase tracks where a PeerState is within its round.
type peerPhase int

const (
	peerPlay     peerPhase = iota // must call Observe next
	peerShares                    // collecting PeerShares from all peers
	peerDecision                  // straggler collecting PeerDecisions
)

// PeerState is one worker of Algorithm 2 (DOLBIE, fully-distributed
// version) as a pure state machine. There is no master: every round, each
// peer broadcasts its local cost and local step size, independently
// identifies the straggler and the consensus step size
// alpha_t = min_j alpha-bar_{j,t}, and non-stragglers send their updated
// decisions only to the straggler, which computes its own remainder and
// shrinks its local step size (rule (8)).
//
// The per-round call sequence is:
//
//  1. Play returns x_{i,t}.
//  2. Observe records the realized cost and revealed cost function and
//     returns outputs beginning with the PeerShare to broadcast.
//  3. HandleShare / HandleDecision consume incoming messages and return
//     any outputs they unlock (a PeerDecision to forward, and/or round
//     completion).
//
// A share for the next round, or a decision arriving before this peer
// knows it is the straggler, is buffered. Links are FIFO and exactly
// once, so a correct peer never sends a share more than one round past
// the last share this peer broadcast, never sends a decision for a later
// round, and never sends twice in a round: all three are rejected on
// arrival, which bounds each buffer at one entry per peer. Not safe for
// concurrent use.
//
// The paper assumes a fixed, reliable peer set; this state machine
// additionally supports the runtime's fail-stop extension: Evict removes
// a crashed peer mid-run, after which every consensus quantity (share
// collection target, straggler identity, step size alpha_t = min_j
// alpha-bar_{j,t}, and the rule-(8) cap denominator) is re-derived over
// the survivor set. The removed peer's workload share is reabsorbed by
// the next completed round's straggler remainder, restoring the simplex
// constraint over the survivors without any extra message exchange.
type PeerState struct {
	id    int
	n     int
	x     float64
	round int
	phase peerPhase

	localAlpha float64
	cost       float64
	f          costfn.Func

	alive      []bool
	aliveCount int
	// counted marks every id this peer has ever counted, live or
	// evicted: the ids Admit refuses.
	counted []bool

	costs      []float64
	alphas     []float64
	renorms    []float64
	shareSeen  []bool
	shareCount int

	// renorm is the factor this peer owes the deployment on its next
	// share: the straggler sets it to the survivors' decision sum R when
	// R > 1 (the drained-straggler overshoot; see completeDecisions), and
	// Observe clears it once broadcast.
	renorm float64

	straggler      int
	consensusAlpha float64
	// Decisions are recorded on arrival, also before this peer's own
	// consensus names it the straggler; finishRound clears them.
	decSeen  []bool
	decVals  []float64
	decCount int

	// pendingShares buffers shares for a round this peer has not started
	// collecting yet, all for the same round; pendingFrom marks their
	// senders.
	pendingShares []PeerShare
	pendingFrom   []bool

	bisectTol float64
	capScale  float64
	rec       *Recorder
}

// PeerOutput is one action the peer must take. Exactly one of the fields
// is meaningful: Share is broadcast to all other peers, Decision is sent
// to Decision.To, and Done reports that the round completed locally (the
// new workload is available via X).
type PeerOutput struct {
	Share    *PeerShare
	Decision *PeerDecision
	Done     bool
}

// NewPeer constructs peer id of an n-peer deployment from the full initial
// partition x0 (every peer is configured with the same x0, from which it
// takes its own coordinate and the common initial local step size).
func NewPeer(id int, x0 []float64, opts ...Option) (*PeerState, error) {
	if err := simplex.Check(x0, 0); err != nil {
		return nil, fmt.Errorf("core: peer initial partition: %w", err)
	}
	n := len(x0)
	if id < 0 || id >= n {
		return nil, fmt.Errorf("core: peer id %d out of range [0, %d)", id, n)
	}
	var o balancerOptions
	for _, opt := range opts {
		opt(&o)
	}
	alpha := InitialAlphaScaled(x0, o.capScale)
	if o.initialAlpha > 0 && o.initialAlpha < alpha {
		alpha = o.initialAlpha
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	return &PeerState{
		id:          id,
		n:           n,
		x:           x0[id],
		round:       1,
		localAlpha:  alpha,
		alive:       alive,
		aliveCount:  n,
		counted:     append([]bool(nil), alive...),
		straggler:   -1,
		costs:       make([]float64, n),
		alphas:      make([]float64, n),
		renorms:     make([]float64, n),
		shareSeen:   make([]bool, n),
		decSeen:     make([]bool, n),
		decVals:     make([]float64, n),
		pendingFrom: make([]bool, n),
		bisectTol:   o.bisectTol,
		capScale:    o.capScale,
		rec:         NewRecorder(o.metrics),
	}, nil
}

// ID returns the peer's index in the worker list.
func (p *PeerState) ID() int { return p.id }

// X returns the peer's current workload fraction.
func (p *PeerState) X() float64 { return p.x }

// Round returns the round the peer is currently executing.
func (p *PeerState) Round() int { return p.round }

// LocalAlpha returns the peer's local step size alpha-bar_{i,t}.
func (p *PeerState) LocalAlpha() float64 { return p.localAlpha }

// Alive reports whether peer id is still part of the deployment from
// this peer's point of view (out-of-range ids are dead).
func (p *PeerState) Alive(id int) bool {
	return id >= 0 && id < p.n && p.alive[id]
}

// Counted reports whether this peer has ever counted id as a member,
// live or evicted. Admit refuses exactly these ids.
func (p *PeerState) Counted(id int) bool {
	return id >= 0 && id < p.n && p.counted[id]
}

// AliveCount returns the current number of surviving peers, including
// this one.
func (p *PeerState) AliveCount() int { return p.aliveCount }

// Survivors lists the surviving peer ids in ascending order.
func (p *PeerState) Survivors() []int {
	out := make([]int, 0, p.aliveCount)
	for i, ok := range p.alive {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// Straggler returns the straggler chosen by the last completed share
// collection (-1 before the first consensus).
func (p *PeerState) Straggler() int { return p.straggler }

// ConsensusAlpha returns the step size alpha_t agreed in the last
// completed share collection: min_j alpha-bar_{j,t} over the peers that
// were alive at that consensus (0 before the first one).
func (p *PeerState) ConsensusAlpha() float64 { return p.consensusAlpha }

// Missing lists the peers whose message this peer is currently waiting
// for: unseen shares during share collection, unseen decisions while
// collecting as the straggler, nil between rounds. A fail-stop driver
// evicts exactly this set when a collection deadline expires (the same
// detection rule MasterState.Missing gives the master).
func (p *PeerState) Missing() []int {
	var out []int
	switch p.phase {
	case peerShares:
		for i, ok := range p.alive {
			if ok && !p.shareSeen[i] {
				out = append(out, i)
			}
		}
	case peerDecision:
		for i, ok := range p.alive {
			if ok && i != p.id && !p.decSeen[i] {
				out = append(out, i)
			}
		}
	}
	return out
}

// Evict removes peer id from the deployment (fail-stop: it never
// returns). The call is idempotent; evicting an unknown peer or the
// peer itself is an error. If the eviction unblocks the current phase —
// the evicted peer's share or decision was the last one outstanding —
// the returned outputs carry the unlocked actions, exactly as if the
// final message had arrived. A share or decision already counted from
// the evicted peer in the current phase is retracted first, so the
// survivor-set consensus never includes a dead peer's values.
func (p *PeerState) Evict(id int) ([]PeerOutput, error) {
	if id < 0 || id >= p.n {
		return nil, fmt.Errorf("core: peer %d: evict unknown peer %d", p.id, id)
	}
	if id == p.id {
		return nil, fmt.Errorf("core: peer %d: cannot evict self", p.id)
	}
	if !p.alive[id] {
		return nil, nil
	}
	p.alive[id] = false
	p.aliveCount--
	if p.decSeen[id] {
		p.decSeen[id] = false
		p.decCount--
	}
	switch p.phase {
	case peerShares:
		if p.shareSeen[id] {
			p.shareSeen[id] = false
			p.shareCount--
		}
		if p.shareCount == p.aliveCount {
			return p.completeShares()
		}
	case peerDecision:
		if p.decCount == p.aliveCount-1 {
			return p.completeDecisions()
		}
	}
	return nil, nil
}

// Admit adds peer id to the deployment with the given initial workload
// weight in (0, 1) — the symmetric counterpart of Evict, used by the
// elastic-membership extension. The caller (the membership runner)
// invokes it on every incumbent at the agreed roster-apply round
// boundary, so the survivor consensus stays over an identical view.
// This peer rescales its own share x *= 1-weight; with every incumbent
// doing the same and the joiner starting at x = weight, the deployment
// re-enters the simplex exactly (the inverse of the eviction
// reabsorption rule). Ids are never reused: admitting an id this peer
// has counted (Counted: live, or evicted) is an error, in whatever
// order ids arrive, as is a call outside the round boundary
// (mid-collection the share and decision targets would change under the
// consensus).
func (p *PeerState) Admit(id int, weight float64) error {
	if p.phase != peerPlay {
		return fmt.Errorf("core: peer %d: admit of %d mid-round %d", p.id, id, p.round)
	}
	if id < 0 {
		return fmt.Errorf("core: peer %d: admit negative id %d", p.id, id)
	}
	if !(weight > 0 && weight < 1) {
		return fmt.Errorf("core: peer %d: admit weight %v outside (0, 1)", p.id, weight)
	}
	if p.Alive(id) {
		return fmt.Errorf("core: peer %d: admit of live peer %d", p.id, id)
	}
	if p.Counted(id) {
		return fmt.Errorf("core: peer %d: admit would reuse evicted id %d", p.id, id)
	}
	p.grow(id + 1)
	p.alive[id] = true
	p.counted[id] = true
	p.aliveCount++
	p.x *= 1 - weight
	return nil
}

// grow extends the per-peer state arrays to capacity n (new slots dead).
func (p *PeerState) grow(n int) {
	if n <= p.n {
		return
	}
	p.alive = append(p.alive, make([]bool, n-p.n)...)
	p.counted = append(p.counted, make([]bool, n-p.n)...)
	p.costs = append(p.costs, make([]float64, n-p.n)...)
	p.alphas = append(p.alphas, make([]float64, n-p.n)...)
	p.renorms = append(p.renorms, make([]float64, n-p.n)...)
	p.shareSeen = append(p.shareSeen, make([]bool, n-p.n)...)
	p.decSeen = append(p.decSeen, make([]bool, n-p.n)...)
	p.decVals = append(p.decVals, make([]float64, n-p.n)...)
	p.pendingFrom = append(p.pendingFrom, make([]bool, n-p.n)...)
	p.n = n
}

// NewJoinedPeer constructs the state machine of a peer admitted into a
// running deployment: members is the roster snapshot from the
// coordinator's RosterUpdate (it must contain id), weight the joiner's
// initial simplex share (every incumbent scales by 1-weight via Admit),
// alpha the coordinator's local step size at admission (keeping the
// min-alpha consensus non-increasing), and round the agreed apply round
// at which the joiner begins playing.
func NewJoinedPeer(id int, members []int, weight, alpha float64, round int, opts ...Option) (*PeerState, error) {
	if !(weight > 0 && weight < 1) {
		return nil, fmt.Errorf("core: joined peer %d: weight %v outside (0, 1)", id, weight)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("core: joined peer %d: alpha %v not positive", id, alpha)
	}
	if round < 1 {
		return nil, fmt.Errorf("core: joined peer %d: round %d before first round", id, round)
	}
	n := id + 1
	self := false
	for _, m := range members {
		if m < 0 {
			return nil, fmt.Errorf("core: joined peer %d: negative member id %d", id, m)
		}
		if m >= n {
			n = m + 1
		}
		self = self || m == id
	}
	if !self {
		return nil, fmt.Errorf("core: joined peer %d: roster snapshot omits self", id)
	}
	var o balancerOptions
	for _, opt := range opts {
		opt(&o)
	}
	alive := make([]bool, n)
	count := 0
	for _, m := range members {
		if !alive[m] {
			alive[m] = true
			count++
		}
	}
	return &PeerState{
		id:          id,
		n:           n,
		x:           weight,
		round:       round,
		localAlpha:  alpha,
		alive:       alive,
		aliveCount:  count,
		counted:     append([]bool(nil), alive...),
		straggler:   -1,
		costs:       make([]float64, n),
		alphas:      make([]float64, n),
		renorms:     make([]float64, n),
		shareSeen:   make([]bool, n),
		decSeen:     make([]bool, n),
		decVals:     make([]float64, n),
		pendingFrom: make([]bool, n),
		bisectTol:   o.bisectTol,
		capScale:    o.capScale,
		rec:         NewRecorder(o.metrics),
	}, nil
}

// Play returns the workload fraction to execute this round (Algorithm 2,
// line 1).
func (p *PeerState) Play() float64 { return p.x }

// Observe records the realized local cost and revealed cost function
// (Algorithm 2, lines 2-3). The first output carries the PeerShare to
// broadcast (line 4); buffered shares may complete the round immediately,
// in which case further outputs follow.
func (p *PeerState) Observe(cost float64, f costfn.Func) ([]PeerOutput, error) {
	if p.phase != peerPlay {
		return nil, fmt.Errorf("core: peer %d: Observe called out of order in round %d", p.id, p.round)
	}
	if f == nil {
		return nil, fmt.Errorf("core: peer %d: nil cost function", p.id)
	}
	p.cost = cost
	p.f = f
	p.phase = peerShares
	p.shareCount = 0
	for i := range p.shareSeen {
		p.shareSeen[i] = false
	}
	share := PeerShare{
		Round:      p.round,
		From:       p.id,
		Cost:       cost,
		LocalAlpha: p.localAlpha,
		Renorm:     p.renorm,
	}
	p.renorm = 0
	out := []PeerOutput{{Share: &share}}
	// Record our own share, then drain anything that arrived early.
	more, err := p.acceptShare(share)
	if err != nil {
		return nil, err
	}
	out = append(out, more...)
	drained, err := p.drainShares()
	if err != nil {
		return nil, err
	}
	return append(out, drained...), nil
}

// HandleShare ingests another peer's broadcast (Algorithm 2, line 4).
// Shares from evicted peers are ignored, not errors: under the
// fail-stop extension a dead peer's delayed or retransmitted traffic
// may trail its eviction.
func (p *PeerState) HandleShare(s PeerShare) ([]PeerOutput, error) {
	if s.From < 0 || s.From >= p.n {
		return nil, reject("peer %d: share from unknown peer %d", p.id, s.From)
	}
	if !p.alive[s.From] {
		return nil, nil
	}
	// A share for round t+1 needs this peer's round-t share, so shares
	// run at most one round past the last one this peer broadcast.
	ahead := p.round
	if p.phase != peerPlay {
		ahead++
	}
	switch {
	case s.Round < p.round:
		return nil, reject("peer %d: stale share for round %d (at round %d)", p.id, s.Round, p.round)
	case s.Round > ahead:
		return nil, reject("peer %d: share for round %d ahead of its own share (at round %d)", p.id, s.Round, p.round)
	case s.Round > p.round || p.phase == peerPlay:
		if p.pendingFrom[s.From] {
			return nil, reject("peer %d: duplicate share from %d in round %d", p.id, s.From, s.Round)
		}
		p.pendingFrom[s.From] = true
		p.pendingShares = append(p.pendingShares, s)
		return nil, nil
	case p.phase == peerDecision:
		return nil, reject("peer %d: share from %d after consensus in round %d", p.id, s.From, p.round)
	}
	return p.acceptShare(s)
}

func (p *PeerState) acceptShare(s PeerShare) ([]PeerOutput, error) {
	if !p.alive[s.From] {
		return nil, nil // evicted while buffered
	}
	if p.shareSeen[s.From] {
		return nil, reject("peer %d: duplicate share from %d in round %d", p.id, s.From, p.round)
	}
	p.shareSeen[s.From] = true
	p.costs[s.From] = s.Cost
	p.alphas[s.From] = s.LocalAlpha
	p.renorms[s.From] = s.Renorm
	p.shareCount++
	if p.shareCount < p.aliveCount {
		return nil, nil
	}
	return p.completeShares()
}

// completeShares closes the share collection once every surviving
// peer's share is in: every peer independently reaches the same global
// cost, straggler, and consensus step size (Algorithm 2, lines 5-7),
// all derived over the survivor set.
func (p *PeerState) completeShares() ([]PeerOutput, error) {
	p.straggler = -1
	alpha := math.Inf(1)
	for i, ok := range p.alive {
		if !ok {
			continue
		}
		if p.straggler == -1 || p.costs[i] > p.costs[p.straggler] {
			p.straggler = i
		}
		if p.alphas[i] < alpha {
			alpha = p.alphas[i]
		}
	}
	return p.applyConsensus(p.straggler, alpha, p.costs[p.straggler], p.maxRenorm())
}

// ApplyConsensus installs an externally computed round consensus —
// straggler identity, step size alpha_t, global cost l_t, and the
// overshoot clamp factor — in place of the flat all-to-all share
// collection. The hierarchical aggregation overlay calls this when the
// root's down-phase PeerAggregate arrives: because the reduction merged
// the same shares the flat path would have collected, the transition is
// bit-identical to completing the collection locally. The peer must
// have observed its own cost (Observe) and not yet completed the round.
func (p *PeerState) ApplyConsensus(round, straggler int, alpha, globalCost, renorm float64) ([]PeerOutput, error) {
	if p.phase != peerShares || round != p.round {
		return nil, fmt.Errorf("core: peer %d: consensus for round %d out of order (round %d, phase %d)", p.id, round, p.round, p.phase)
	}
	if straggler < 0 || straggler >= p.n || !p.alive[straggler] {
		return nil, fmt.Errorf("core: peer %d: consensus names dead straggler %d", p.id, straggler)
	}
	p.straggler = straggler
	return p.applyConsensus(straggler, alpha, globalCost, renorm)
}

// applyConsensus performs the post-consensus half of a round: the
// overshoot clamp, then either the non-straggler risk-averse update or
// the straggler's switch to decision collection. It is the shared tail
// of the flat path (completeShares) and the hierarchical path
// (ApplyConsensus); the statement order exactly preserves the original
// flat-mode sequence.
func (p *PeerState) applyConsensus(straggler int, alpha, l, renorm float64) ([]PeerOutput, error) {
	p.consensusAlpha = alpha

	// Overshoot clamp: if the previous round's straggler piggybacked a
	// renorm factor R > 1, every peer scales its share by 1/R before
	// updating, so the survivor set re-enters the simplex in lockstep (the
	// drained straggler itself holds x = 0, unchanged by the scaling). At
	// most one share per round can carry a factor (only a straggler sets
	// it); max over the survivor set is order-independent, preserving
	// run-for-run determinism.
	if renorm > 1 {
		p.x /= renorm
	}

	if p.id != straggler {
		// Risk-averse assistance (Algorithm 2, lines 8-10).
		xp, _, iters, err := costfn.InverseIters(p.f, l, 0, 1, p.bisectTol)
		if err != nil {
			return nil, fmt.Errorf("core: peer %d: inverse: %w", p.id, err)
		}
		p.rec.RecordBisection(iters)
		if xp < p.x {
			xp = p.x
		}
		p.x += alpha * (xp - p.x)
		dec := &PeerDecision{Round: p.round, From: p.id, To: p.straggler, Next: p.x}
		out := []PeerOutput{{Decision: dec}, {Done: true}}
		return p.finishRound(out)
	}
	if p.aliveCount == 1 {
		// Degenerate single-survivor deployment: keep the whole load.
		p.x = 1
		p.rec.RecordRound(p.id, l, p.localAlpha)
		return p.finishRound([]PeerOutput{{Done: true}})
	}
	// Straggler: collect the other peers' decisions (Algorithm 2, line 11);
	// any that arrived early are already recorded.
	p.phase = peerDecision
	if p.decCount == p.aliveCount-1 {
		return p.completeDecisions()
	}
	return nil, nil
}

// HandleDecision ingests a non-straggler's decision sent to this peer as
// the round's straggler (Algorithm 2, lines 11-13). A decision may
// arrive before this peer's own share collection names it the
// straggler; it is recorded and counted once it does. Decisions from
// evicted peers are ignored, mirroring HandleShare.
func (p *PeerState) HandleDecision(d PeerDecision) ([]PeerOutput, error) {
	if d.From < 0 || d.From >= p.n {
		return nil, reject("peer %d: decision from unknown peer %d", p.id, d.From)
	}
	if d.To != p.id {
		return nil, reject("peer %d: decision addressed to %d", p.id, d.To)
	}
	if !p.alive[d.From] {
		return nil, nil
	}
	switch {
	case d.Round < p.round:
		return nil, reject("peer %d: stale decision for round %d (at round %d)", p.id, d.Round, p.round)
	case d.Round > p.round:
		return nil, reject("peer %d: decision for later round %d (at round %d)", p.id, d.Round, p.round)
	case d.From == p.id:
		return nil, reject("peer %d: decision from self", p.id)
	case p.decSeen[d.From]:
		return nil, reject("peer %d: duplicate decision from %d in round %d", p.id, d.From, p.round)
	}
	p.decSeen[d.From] = true
	p.decVals[d.From] = d.Next
	p.decCount++
	if p.phase != peerDecision || p.decCount < p.aliveCount-1 {
		return nil, nil
	}
	return p.completeDecisions()
}

// completeDecisions closes the straggler's decision collection:
// remainder workload (Algorithm 2, line 12) and local step-size shrink
// (line 13), with the rule-(8) cap evaluated over the survivor count.
// A peer evicted mid-collection has its decision retracted before this
// point, so its frozen workload share is absorbed into the remainder.
func (p *PeerState) completeDecisions() ([]PeerOutput, error) {
	// Sum the collected decisions in peer-id order: float addition is not
	// associative, so summing in arrival order would make the remainder
	// depend on message timing and break run-for-run determinism.
	var taken float64
	for i, seen := range p.decSeen {
		if seen {
			taken += p.decVals[i]
		}
	}
	xs := 1 - taken
	if xs < 0 {
		xs = 0
		// The survivors' decisions overshot the simplex — possible only
		// when this straggler was already drained, so the rule-(8) cap
		// below could not have bound last round. Owe the deployment the
		// renormalization factor on the next share broadcast; tolerate
		// float dust so feasible rounds never trigger a renorm.
		if taken > 1+drainEps {
			p.renorm = taken
		}
	}
	p.x = xs
	if xs > drainEps { // a fully drained straggler degenerates the cap; see balancer.go
		if c := AlphaCapScaled(xs, p.aliveCount, p.capScale); c < p.localAlpha {
			p.localAlpha = c
		}
	}
	// The straggler is the unique peer that sees the round through to its
	// remainder, so it alone advances the shared round counter; every
	// peer's gauges would agree (the consensus values are identical).
	for i, c := range p.costs {
		// Every survivor's share was seen in flat mode (eviction retracts
		// shares along with liveness); under hierarchical aggregation only
		// the peer's own share is local, so the guard keeps the gauge
		// honest instead of exporting stale costs.
		if p.alive[i] && p.shareSeen[i] {
			p.rec.RecordWorkerCost(i, c)
		}
	}
	p.rec.RecordRound(p.id, p.costs[p.id], p.localAlpha)
	return p.finishRound([]PeerOutput{{Done: true}})
}

// maxRenorm returns the largest renorm factor piggybacked on this
// round's surviving shares (0 when none carried one).
func (p *PeerState) maxRenorm() float64 {
	var r float64
	for i, ok := range p.alive {
		if ok && p.renorms[i] > r {
			r = p.renorms[i]
		}
	}
	return r
}

// finishRound advances to the next round, discarding decisions that
// were addressed to this peer although it was not the straggler.
func (p *PeerState) finishRound(out []PeerOutput) ([]PeerOutput, error) {
	p.round++
	p.phase = peerPlay
	p.decCount = 0
	for i := range p.decSeen {
		p.decSeen[i] = false
	}
	return out, nil
}

// drainShares accepts the shares buffered for the round Observe just
// started. They are all for that round and from distinct peers, so the
// round cannot complete with shares left over.
func (p *PeerState) drainShares() ([]PeerOutput, error) {
	pending := p.pendingShares
	p.pendingShares = p.pendingShares[:0]
	var out []PeerOutput
	for _, s := range pending {
		p.pendingFrom[s.From] = false
		o, err := p.acceptShare(s)
		if err != nil {
			return nil, err
		}
		out = append(out, o...)
	}
	return out, nil
}
