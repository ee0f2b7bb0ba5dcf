package core

// Tests for the elastic-membership extension of the fully-distributed
// state machine: the hierarchical aggregate reduction must reproduce
// the flat all-to-all consensus bit for bit, and Admit must be the
// exact simplex inverse of the eviction reabsorption rule.

import (
	"math"
	"sort"
	"testing"

	"dolbie/internal/costfn"
)

// TestAggregateMergeMatchesFlatConsensus folds a fixed share set in
// several different merge orders and checks each against the flat
// ascending-id argmax/min scan, including the lowest-id tie-break on
// exactly equal costs.
func TestAggregateMergeMatchesFlatConsensus(t *testing.T) {
	shares := []PeerShare{
		{Round: 3, From: 0, Cost: 1.25, LocalAlpha: 0.20},
		{Round: 3, From: 1, Cost: 2.50, LocalAlpha: 0.10, Renorm: 1.5},
		{Round: 3, From: 2, Cost: 2.50, LocalAlpha: 0.30},
		{Round: 3, From: 3, Cost: 0.75, LocalAlpha: 0.25},
		{Round: 3, From: 4, Cost: 2.25, LocalAlpha: 0.15},
	}
	// Flat reference: ascending-id scan with strict-greater argmax.
	straggler, alpha, renorm := -1, math.Inf(1), 0.0
	for i, s := range shares {
		if straggler == -1 || s.Cost > shares[straggler].Cost {
			straggler = i
		}
		if s.LocalAlpha < alpha {
			alpha = s.LocalAlpha
		}
		if s.Renorm > renorm {
			renorm = s.Renorm
		}
	}
	orders := [][]int{
		{0, 1, 2, 3, 4},
		{4, 3, 2, 1, 0},
		{2, 0, 4, 1, 3},
		{1, 4, 0, 3, 2},
	}
	for _, order := range orders {
		agg := ShareAggregate(shares[order[0]], 7)
		for _, i := range order[1:] {
			agg = agg.Merge(ShareAggregate(shares[i], 7))
		}
		if agg.Count != len(shares) {
			t.Fatalf("order %v: Count = %d, want %d", order, agg.Count, len(shares))
		}
		if agg.Straggler != shares[straggler].From || agg.MaxCost != shares[straggler].Cost {
			t.Fatalf("order %v: straggler %d cost %v, want %d cost %v",
				order, agg.Straggler, agg.MaxCost, shares[straggler].From, shares[straggler].Cost)
		}
		if agg.MinAlpha != alpha || agg.MaxRenorm != renorm {
			t.Fatalf("order %v: alpha %v renorm %v, want %v %v", order, agg.MinAlpha, agg.MaxRenorm, alpha, renorm)
		}
	}
	// A nested (tree-shaped) merge agrees with the linear folds.
	left := ShareAggregate(shares[0], 7).Merge(ShareAggregate(shares[1], 7))
	right := ShareAggregate(shares[2], 7).Merge(ShareAggregate(shares[3], 7)).Merge(ShareAggregate(shares[4], 7))
	if got := left.Merge(right); got.Straggler != 1 || got.MinAlpha != 0.10 {
		t.Fatalf("tree merge = %+v, want straggler 1 alpha 0.10", got)
	}
}

// membershipDeliver routes a batch of state-machine outputs across an
// in-memory peer set: shares broadcast to everyone else, decisions to
// their addressee, recursively delivering whatever those unlock.
func membershipDeliver(t *testing.T, peers map[int]*PeerState, from int, outs []PeerOutput) {
	t.Helper()
	for _, o := range outs {
		switch {
		case o.Share != nil:
			for id, q := range peers {
				if id == from {
					continue
				}
				more, err := q.HandleShare(*o.Share)
				if err != nil {
					t.Fatal(err)
				}
				membershipDeliver(t, peers, id, more)
			}
		case o.Decision != nil:
			more, err := peers[o.Decision.To].HandleDecision(*o.Decision)
			if err != nil {
				t.Fatal(err)
			}
			membershipDeliver(t, peers, o.Decision.To, more)
		}
	}
}

func sortedPeerIDs(peers map[int]*PeerState) []int {
	ids := make([]int, 0, len(peers))
	for id := range peers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// TestApplyConsensusMatchesFlat runs the same multi-round trajectory
// through the flat all-to-all exchange and through the aggregate
// reduction + ApplyConsensus path, and requires bit-identical workloads
// and step sizes every round.
func TestApplyConsensusMatchesFlat(t *testing.T) {
	x0 := []float64{0.1, 0.2, 0.3, 0.4}
	cost := func(id, round int) float64 { return float64(id+1) * (1.1 + 0.13*float64(round)) * x0[id] }
	fn := func(id int) costfn.Func { return costfn.Affine{Slope: float64(id + 1), Intercept: 0.05 * float64(id)} }

	flat := map[int]*PeerState{}
	tree := map[int]*PeerState{}
	for id := range x0 {
		for _, set := range []map[int]*PeerState{flat, tree} {
			p, err := NewPeer(id, x0)
			if err != nil {
				t.Fatal(err)
			}
			set[id] = p
		}
	}
	for round := 1; round <= 6; round++ {
		// Flat: broadcast every share to every peer.
		for _, id := range sortedPeerIDs(flat) {
			outs, err := flat[id].Observe(cost(id, round), fn(id))
			if err != nil {
				t.Fatal(err)
			}
			membershipDeliver(t, flat, id, outs)
		}
		// Tree: observe locally, fold the shares into one aggregate, then
		// install the consensus on every peer.
		ownShares := map[int]PeerShare{}
		for _, id := range sortedPeerIDs(tree) {
			outs, err := tree[id].Observe(cost(id, round), fn(id))
			if err != nil {
				t.Fatal(err)
			}
			if len(outs) != 1 || outs[0].Share == nil {
				t.Fatalf("round %d peer %d: tree-mode Observe outputs %+v, want lone share", round, id, outs)
			}
			ownShares[id] = *outs[0].Share
		}
		var agg PeerAggregate
		for i, id := range sortedPeerIDs(tree) {
			a := ShareAggregate(ownShares[id], 0)
			if i == 0 {
				agg = a
			} else {
				agg = agg.Merge(a)
			}
		}
		for _, id := range sortedPeerIDs(tree) {
			outs, err := tree[id].ApplyConsensus(round, agg.Straggler, agg.MinAlpha, agg.MaxCost, agg.MaxRenorm)
			if err != nil {
				t.Fatal(err)
			}
			membershipDeliver(t, tree, id, outs)
		}
		for _, id := range sortedPeerIDs(flat) {
			f, h := flat[id], tree[id]
			if f.Round() != round+1 || h.Round() != round+1 {
				t.Fatalf("round %d peer %d: rounds %d/%d, want both %d", round, id, f.Round(), h.Round(), round+1)
			}
			if f.X() != h.X() || f.LocalAlpha() != h.LocalAlpha() {
				t.Fatalf("round %d peer %d: flat x=%v alpha=%v, tree x=%v alpha=%v",
					round, id, f.X(), f.LocalAlpha(), h.X(), h.LocalAlpha())
			}
			if f.Straggler() != h.Straggler() || f.ConsensusAlpha() != h.ConsensusAlpha() {
				t.Fatalf("round %d peer %d: consensus diverged (%d/%v vs %d/%v)",
					round, id, f.Straggler(), f.ConsensusAlpha(), h.Straggler(), h.ConsensusAlpha())
			}
		}
	}
}

func TestApplyConsensusRejectsOutOfOrder(t *testing.T) {
	p, err := NewPeer(0, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ApplyConsensus(1, 1, 0.1, 2.0, 0); err == nil {
		t.Fatal("ApplyConsensus before Observe succeeded, want error")
	}
	if _, err = p.Observe(1.0, costfn.Affine{Slope: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ApplyConsensus(2, 1, 0.1, 2.0, 0); err == nil {
		t.Fatal("ApplyConsensus for the wrong round succeeded, want error")
	}
}

// TestAdmitScalesSimplex checks that a synchronized Admit across the
// incumbents plus the joiner's starting weight restores the simplex
// exactly, and that the widened deployment completes a normal round
// with the joiner's share counted.
func TestAdmitScalesSimplex(t *testing.T) {
	x0 := []float64{0.25, 0.75}
	peers := map[int]*PeerState{}
	for id := range x0 {
		p, err := NewPeer(id, x0, WithInitialAlpha(0.1))
		if err != nil {
			t.Fatal(err)
		}
		peers[id] = p
	}
	const weight = 1.0 / 3
	for _, p := range peers {
		if err := p.Admit(2, weight); err != nil {
			t.Fatal(err)
		}
	}
	joiner, err := NewJoinedPeer(2, []int{0, 1, 2}, weight, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	peers[2] = joiner
	var sum float64
	for _, p := range peers {
		sum += p.X()
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("post-admit simplex sum = %v, want 1", sum)
	}
	for id, p := range peers {
		if got := p.AliveCount(); got != 3 {
			t.Fatalf("peer %d AliveCount = %d, want 3", id, got)
		}
		if s := p.Survivors(); len(s) != 3 || s[0] != 0 || s[2] != 2 {
			t.Fatalf("peer %d Survivors = %v, want [0 1 2]", id, s)
		}
	}
	// The widened deployment completes a flat round: the joiner's share
	// participates in the consensus and decisions flow normally.
	for _, id := range sortedPeerIDs(peers) {
		outs, err := peers[id].Observe(float64(3-id), costfn.Affine{Slope: 1})
		if err != nil {
			t.Fatal(err)
		}
		membershipDeliver(t, peers, id, outs)
	}
	sum = 0
	for id, p := range peers {
		if p.Round() != 2 {
			t.Fatalf("peer %d round = %d, want 2", id, p.Round())
		}
		sum += p.X()
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("post-round simplex sum = %v, want 1", sum)
	}
}

func TestAdmitRejectsInvalid(t *testing.T) {
	p, err := NewPeer(0, []float64{0.4, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Admit(1, 0.5); err == nil {
		t.Fatal("admitting a live peer succeeded, want error")
	}
	if err := p.Admit(2, 0); err == nil {
		t.Fatal("admit with weight 0 succeeded, want error")
	}
	if err := p.Admit(2, 1); err == nil {
		t.Fatal("admit with weight 1 succeeded, want error")
	}
	if err := p.Admit(-1, 0.5); err == nil {
		t.Fatal("admit with negative id succeeded, want error")
	}
	if _, err := p.Evict(1); err != nil {
		t.Fatal(err)
	}
	if err := p.Admit(1, 0.5); err == nil {
		t.Fatal("readmitting an evicted id succeeded, want error")
	}
	if _, err := p.Observe(1.0, costfn.Affine{Slope: 1}); err != nil {
		t.Fatal(err)
	}
	// aliveCount is 1 so Observe completed the round; rewind to mid-phase
	// via a fresh two-peer state to check the round-boundary guard.
	q, err := NewPeer(0, []float64{0.4, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Observe(1.0, costfn.Affine{Slope: 1}); err != nil {
		t.Fatal(err)
	}
	if err := q.Admit(2, 0.5); err == nil {
		t.Fatal("admit mid-collection succeeded, want error")
	}
}

// TestAdmitInAnyIDOrder admits ids against their order: a smaller id
// the peer has never counted is admitted after a larger one, while a
// live id and an evicted id are still refused.
func TestAdmitInAnyIDOrder(t *testing.T) {
	p, err := NewPeer(0, []float64{0.4, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{10, 7} {
		if err := p.Admit(id, 0.25); err != nil {
			t.Fatalf("admit %d: %v", id, err)
		}
	}
	if _, err := p.Evict(7); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{1, 10, 7} {
		if err := p.Admit(id, 0.25); err == nil {
			t.Fatalf("admitting counted id %d succeeded, want error", id)
		}
	}
	if s := p.Survivors(); len(s) != 3 || s[0] != 0 || s[1] != 1 || s[2] != 10 || p.Counted(8) || !p.Counted(7) {
		t.Fatalf("survivors %v, counted 8 %v, counted 7 %v; want [0 1 10], false, true", s, p.Counted(8), p.Counted(7))
	}
}

func TestNewJoinedPeerValidates(t *testing.T) {
	if _, err := NewJoinedPeer(2, []int{0, 1}, 0.25, 0.1, 3); err == nil {
		t.Fatal("roster omitting self accepted, want error")
	}
	if _, err := NewJoinedPeer(2, []int{0, 1, 2}, 0, 0.1, 3); err == nil {
		t.Fatal("weight 0 accepted, want error")
	}
	if _, err := NewJoinedPeer(2, []int{0, 1, 2}, 0.25, 0, 3); err == nil {
		t.Fatal("alpha 0 accepted, want error")
	}
	if _, err := NewJoinedPeer(2, []int{0, 1, 2}, 0.25, 0.1, 0); err == nil {
		t.Fatal("round 0 accepted, want error")
	}
	p, err := NewJoinedPeer(2, []int{0, 1, 2}, 0.25, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID() != 2 || p.X() != 0.25 || p.LocalAlpha() != 0.1 || p.Round() != 3 || p.AliveCount() != 3 {
		t.Fatalf("joined peer state = id %d x %v alpha %v round %d alive %d",
			p.ID(), p.X(), p.LocalAlpha(), p.Round(), p.AliveCount())
	}
}
