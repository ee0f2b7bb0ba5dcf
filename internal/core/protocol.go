package core

// This file defines the wire-level messages of DOLBIE's two distributed
// architectures. All payloads are scalar values (costs, step sizes,
// decisions) plus routing metadata, matching the paper's communication
// model: workers never share their local cost functions, only cost values
// and workload decisions (Section IV-B, "Privacy protection").
//
// Every message carries the 1-based online round it belongs to. Real
// transports (internal/cluster) deliver messages with arbitrary
// interleaving across senders, so the state machines buffer messages that
// arrive for a round they have not reached yet.

// CostReport is sent by a worker to the master after observing its local
// cost l_{i,t} (Algorithm 1, line 4).
type CostReport struct {
	Round int     `json:"round"`
	From  int     `json:"from"`
	Cost  float64 `json:"cost"`
}

// Coordinate is broadcast by the master to all workers once every local
// cost has been collected (Algorithm 1, line 12). It carries the global
// cost l_t, the step size alpha_t, and the straggler identity (the
// paper's indicator 1_{i != s_t}, sent here as the index so a single
// broadcast payload serves all workers).
type Coordinate struct {
	Round      int     `json:"round"`
	GlobalCost float64 `json:"globalCost"`
	Alpha      float64 `json:"alpha"`
	Straggler  int     `json:"straggler"`
}

// DecisionReport is sent by each non-straggling worker to the master with
// its updated decision x_{i,t+1} (Algorithm 1, line 7).
type DecisionReport struct {
	Round int     `json:"round"`
	From  int     `json:"from"`
	Next  float64 `json:"next"`
}

// StragglerAssign is sent by the master to the straggler with its updated
// decision x_{s_t,t+1} = 1 - sum_{i != s_t} x_{i,t+1} (Algorithm 1,
// lines 14-15).
type StragglerAssign struct {
	Round int     `json:"round"`
	To    int     `json:"to"`
	Next  float64 `json:"next"`
}

// PeerShare is broadcast by every worker in the fully-distributed
// architecture after observing its local cost: the cost value l_{i,t} and
// the local step size alpha-bar_{i,t} (Algorithm 2, line 4).
//
// Renorm is the runtime's overshoot clamp (not in the paper): when the
// previous round's straggler found the survivors' decisions summing to
// R > 1 — possible only when it had drained to zero share, so rule (8)'s
// cap could not bind — it piggybacks R on its next share. Every peer
// then scales its workload by 1/R before updating, restoring the simplex
// in one round. Renorm is 0 (or 1) on every share of a feasible round,
// so the field is inert outside the documented degeneracy (DESIGN.md,
// "Known limitations" #3).
type PeerShare struct {
	Round      int     `json:"round"`
	From       int     `json:"from"`
	Cost       float64 `json:"cost"`
	LocalAlpha float64 `json:"localAlpha"`
	Renorm     float64 `json:"renorm,omitempty"`
}

// PeerDecision is sent by each non-straggling worker directly (and only)
// to the round's straggler with its updated decision x_{i,t+1}
// (Algorithm 2, line 9).
type PeerDecision struct {
	Round int     `json:"round"`
	From  int     `json:"from"`
	To    int     `json:"to"`
	Next  float64 `json:"next"`
}

// JoinRequest asks the deployment to admit a new peer. From is the id
// the joiner proposes for itself (ids are never reused, so the driver
// hands out fresh ones); Round is the joiner's local round guess and is
// informational only — the membership coordinator decides the apply
// round. Any member may receive a JoinRequest (the joiner only needs one
// reachable contact); non-coordinators forward it to the current
// coordinator. The paper assumes a fixed worker set — joins exist only
// in the runtime's elastic-membership extension (see DESIGN.md,
// "Membership and aggregation topology").
type JoinRequest struct {
	Round int `json:"round"`
	From  int `json:"from"`
}

// RosterUpdate is the membership coordinator's versioned roster change
// announcement. Version increases by one per applied roster operation
// (join or eviction), so receivers can order updates and operators can
// alert on divergence. Round is the apply round: every member installs
// the change at the boundary before beginning that round, which keeps
// the survivor consensus (straggler, min-alpha, rule-(8) denominator)
// over an identical roster view on all peers.
//
// Join is the admitted peer's id and Weight its initial simplex share;
// incumbents scale their own shares by 1-Weight (the inverse of the
// eviction reabsorption rule). Alpha is the coordinator's local step
// size at admission — the joiner starts from it so the min-alpha
// consensus stays non-increasing across churn. Members is the full
// roster snapshot and is populated only on the copy sent to the joiner
// itself (incumbents already hold the roster); a RosterUpdate with
// Round == 0 is a denial. A coordinator sends an admission AnnounceLead
// rounds before its apply round.
type RosterUpdate struct {
	Version uint64  `json:"version"`
	Round   int     `json:"round"`
	From    int     `json:"from"`
	Join    int     `json:"join"`
	Weight  float64 `json:"weight"`
	Alpha   float64 `json:"alpha"`
	Members []int   `json:"members,omitempty"`
}

// AnnounceLead is how many rounds a RosterUpdate's apply round lies past
// the round its coordinator sends it in.
const AnnounceLead = 2

// PeerAggregate is one hop of the hierarchical round reduction: instead
// of the O(N^2) all-to-all PeerShare broadcast, peers arranged in a
// k-ary tree merge their subtrees' shares upward (Down=false) and the
// root broadcasts the final consensus back down (Down=true). The merged
// quantities — Count shares covering MaxCost with its lowest-id
// Straggler, the minimum local step size MinAlpha, and the largest
// piggybacked overshoot clamp MaxRenorm — form an associative,
// commutative reduction, so the tree result is bit-identical to the
// flat broadcast's consensus. Epoch carries the sender's roster version:
// receivers drop aggregates from older roster views and re-aggregate
// after membership changes, so a consensus never mixes roster epochs.
type PeerAggregate struct {
	Round     int     `json:"round"`
	From      int     `json:"from"`
	Epoch     uint64  `json:"epoch"`
	Down      bool    `json:"down,omitempty"`
	Count     int     `json:"count"`
	MaxCost   float64 `json:"maxCost"`
	Straggler int     `json:"straggler"`
	MinAlpha  float64 `json:"minAlpha"`
	MaxRenorm float64 `json:"maxRenorm,omitempty"`
}

// ShareAggregate seeds a reduction leaf from a peer's own share: a
// single-share aggregate whose straggler is the peer itself.
func ShareAggregate(s PeerShare, epoch uint64) PeerAggregate {
	return PeerAggregate{
		Round:     s.Round,
		From:      s.From,
		Epoch:     epoch,
		Count:     1,
		MaxCost:   s.Cost,
		Straggler: s.From,
		MinAlpha:  s.LocalAlpha,
		MaxRenorm: s.Renorm,
	}
}

// Merge combines two partial aggregates of the same round and epoch.
// The straggler tie-break (larger cost wins; on exactly equal costs the
// lower id wins) matches the flat consensus's ascending-id argmax scan,
// and no arithmetic is performed on the floats, so any merge order
// yields the flat result exactly.
func (a PeerAggregate) Merge(b PeerAggregate) PeerAggregate {
	out := a
	out.Count += b.Count
	if b.MaxCost > out.MaxCost || (b.MaxCost == out.MaxCost && b.Straggler < out.Straggler) {
		out.MaxCost = b.MaxCost
		out.Straggler = b.Straggler
	}
	if b.MinAlpha < out.MinAlpha {
		out.MinAlpha = b.MinAlpha
	}
	if b.MaxRenorm > out.MaxRenorm {
		out.MaxRenorm = b.MaxRenorm
	}
	return out
}

// PeerEvict is the fail-stop extension's crash declaration for the
// fully-distributed architecture: when peer From's collection deadline
// expires, it declares the silent peer Evicted crashed and broadcasts
// this notice to every surviving peer. Receivers remove Evicted
// immediately (union rule: any single accuser suffices, mirroring the
// trusted detection of the fail-stop master); a peer that learns of its
// own eviction must stop. The paper itself assumes a fixed, reliable
// worker set — this message exists only in the runtime's fault-tolerance
// extension (see DESIGN.md, "Fault model").
type PeerEvict struct {
	Round   int `json:"round"`
	From    int `json:"from"`
	Evicted int `json:"evicted"`
}
