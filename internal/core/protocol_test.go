package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dolbie/internal/costfn"
	"dolbie/internal/simplex"
)

// runMasterWorker drives the master-worker state machines through T rounds
// against per-round affine cost functions, delivering messages in a
// randomly shuffled order per phase, and returns the per-round decision
// vectors (x_{t+1} after each round).
func runMasterWorker(t *testing.T, funcs [][]costfn.Affine, x0 []float64, rng *rand.Rand, opts ...Option) [][]float64 {
	t.Helper()
	n := len(x0)
	master, err := NewMaster(x0, opts...)
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]*WorkerState, n)
	for i := range workers {
		w, err := NewWorker(i, n, x0[i], opts...)
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}

	var trajectory [][]float64
	for round := 0; round < len(funcs); round++ {
		// Phase 1: workers play, observe, send costs in shuffled order.
		reports := make([]CostReport, 0, n)
		for i, w := range workers {
			x := w.Play()
			f := funcs[round][i]
			rep, err := w.Observe(f.Eval(x), f)
			if err != nil {
				t.Fatalf("round %d worker %d observe: %v", round, i, err)
			}
			reports = append(reports, rep)
		}
		rng.Shuffle(len(reports), func(a, b int) { reports[a], reports[b] = reports[b], reports[a] })

		var coordinate *Coordinate
		var assign *StragglerAssign
		collect := func(outs []MasterOutput) {
			for _, o := range outs {
				if o.Coordinate != nil {
					coordinate = o.Coordinate
				}
				if o.Assign != nil {
					assign = o.Assign
				}
			}
		}
		for _, r := range reports {
			outs, err := master.HandleCost(r)
			if err != nil {
				t.Fatalf("round %d master cost: %v", round, err)
			}
			collect(outs)
		}
		if coordinate == nil {
			t.Fatalf("round %d: master did not coordinate", round)
		}

		// Phase 2: broadcast coordinate, gather decisions in shuffled order.
		decisions := make([]DecisionReport, 0, n-1)
		for i, w := range workers {
			dec, err := w.HandleCoordinate(*coordinate)
			if err != nil {
				t.Fatalf("round %d worker %d coordinate: %v", round, i, err)
			}
			if dec != nil {
				decisions = append(decisions, *dec)
			}
		}
		rng.Shuffle(len(decisions), func(a, b int) { decisions[a], decisions[b] = decisions[b], decisions[a] })
		for _, d := range decisions {
			outs, err := master.HandleDecision(d)
			if err != nil {
				t.Fatalf("round %d master decision: %v", round, err)
			}
			collect(outs)
		}
		if assign == nil {
			t.Fatalf("round %d: master did not assign the straggler", round)
		}
		if err := workers[assign.To].HandleAssign(*assign); err != nil {
			t.Fatalf("round %d straggler assign: %v", round, err)
		}

		x := make([]float64, n)
		for i, w := range workers {
			x[i] = w.X()
		}
		trajectory = append(trajectory, x)
	}
	return trajectory
}

// runPeers drives the fully-distributed state machines through T rounds,
// delivering every message in a randomly shuffled order, and returns the
// per-round decision vectors.
func runPeers(t *testing.T, funcs [][]costfn.Affine, x0 []float64, rng *rand.Rand, opts ...Option) [][]float64 {
	t.Helper()
	n := len(x0)
	peers := make([]*PeerState, n)
	for i := range peers {
		p, err := NewPeer(i, x0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}

	var trajectory [][]float64
	for round := 0; round < len(funcs); round++ {
		type envelope struct {
			to       int
			share    *PeerShare
			decision *PeerDecision
		}
		var queue []envelope
		process := func(from int, outs []PeerOutput) {
			for _, o := range outs {
				switch {
				case o.Share != nil:
					for j := 0; j < n; j++ {
						if j != from {
							queue = append(queue, envelope{to: j, share: o.Share})
						}
					}
				case o.Decision != nil:
					queue = append(queue, envelope{to: o.Decision.To, decision: o.Decision})
				}
			}
		}

		for i, p := range peers {
			x := p.Play()
			f := funcs[round][i]
			outs, err := p.Observe(f.Eval(x), f)
			if err != nil {
				t.Fatalf("round %d peer %d observe: %v", round, i, err)
			}
			process(i, outs)
		}
		for len(queue) > 0 {
			k := rng.Intn(len(queue))
			env := queue[k]
			queue = append(queue[:k], queue[k+1:]...)
			var outs []PeerOutput
			var err error
			switch {
			case env.share != nil:
				outs, err = peers[env.to].HandleShare(*env.share)
			case env.decision != nil:
				outs, err = peers[env.to].HandleDecision(*env.decision)
			}
			if err != nil {
				t.Fatalf("round %d deliver to peer %d: %v", round, env.to, err)
			}
			process(env.to, outs)
		}

		x := make([]float64, n)
		for i, p := range peers {
			x[i] = p.X()
		}
		trajectory = append(trajectory, x)
	}
	return trajectory
}

// runBalancer drives the centralized Balancer over the same instance.
func runBalancer(t *testing.T, funcs [][]costfn.Affine, x0 []float64, opts ...Option) [][]float64 {
	t.Helper()
	b, err := NewBalancer(x0, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var trajectory [][]float64
	for round := 0; round < len(funcs); round++ {
		x := b.Assignment()
		obs := Observation{Costs: make([]float64, len(x0)), Funcs: make([]costfn.Func, len(x0))}
		for i, f := range funcs[round] {
			obs.Costs[i] = f.Eval(x[i])
			obs.Funcs[i] = f
		}
		rep, err := b.Step(obs)
		if err != nil {
			t.Fatal(err)
		}
		trajectory = append(trajectory, rep.Next)
	}
	return trajectory
}

func instanceFuncs(r *rand.Rand, n, T int) [][]costfn.Affine {
	funcs := make([][]costfn.Affine, T)
	for t := range funcs {
		funcs[t] = make([]costfn.Affine, n)
		for i := range funcs[t] {
			funcs[t][i] = costfn.Affine{Slope: 0.1 + r.Float64()*8, Intercept: r.Float64() * 0.5}
		}
	}
	return funcs
}

func assertTrajectoriesEqual(t *testing.T, name string, got, want [][]float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rounds, want %d", name, len(got), len(want))
	}
	for round := range want {
		for i := range want[round] {
			if math.Abs(got[round][i]-want[round][i]) > tol {
				t.Fatalf("%s: round %d worker %d: got %v, want %v",
					name, round, i, got[round][i], want[round][i])
			}
		}
	}
}

// TestProtocolEquivalence verifies that the master-worker protocol, the
// fully-distributed protocol, and the centralized balancer all generate
// the same decision trajectory on the same instance, regardless of
// message delivery order.
func TestProtocolEquivalence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(7)
		T := 1 + r.Intn(25)
		funcs := instanceFuncs(r, n, T)
		x0 := simplex.Uniform(n)

		want := runBalancer(t, funcs, x0)
		mw := runMasterWorker(t, funcs, x0, rand.New(rand.NewSource(seed+1000)))
		fd := runPeers(t, funcs, x0, rand.New(rand.NewSource(seed+2000)))

		assertTrajectoriesEqual(t, "master-worker", mw, want, 1e-9)
		assertTrajectoriesEqual(t, "fully-distributed", fd, want, 1e-9)
	}
}

// TestProtocolEquivalenceWithPinnedAlpha repeats the equivalence check with
// the experimental configuration of the paper (alpha_1 = 0.001).
func TestProtocolEquivalenceWithPinnedAlpha(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	n, T := 10, 30
	funcs := instanceFuncs(r, n, T)
	x0 := simplex.Uniform(n)
	opts := []Option{WithInitialAlpha(0.001)}

	want := runBalancer(t, funcs, x0, opts...)
	mw := runMasterWorker(t, funcs, x0, rand.New(rand.NewSource(1)), opts...)
	fd := runPeers(t, funcs, x0, rand.New(rand.NewSource(2)), opts...)

	assertTrajectoriesEqual(t, "master-worker", mw, want, 1e-9)
	assertTrajectoriesEqual(t, "fully-distributed", fd, want, 1e-9)
}

// TestProtocolFeasibilityEveryRound asserts the simplex invariant on the
// distributed trajectories themselves.
func TestProtocolFeasibilityEveryRound(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	funcs := instanceFuncs(r, 6, 40)
	x0 := simplex.Uniform(6)
	for _, traj := range [][][]float64{
		runMasterWorker(t, funcs, x0, rand.New(rand.NewSource(3))),
		runPeers(t, funcs, x0, rand.New(rand.NewSource(4))),
	} {
		for round, x := range traj {
			if err := simplex.Check(x, 1e-7); err != nil {
				t.Errorf("round %d: %v", round, err)
			}
		}
	}
}

func TestMasterValidation(t *testing.T) {
	if _, err := NewMaster([]float64{0.4, 0.4}); err == nil {
		t.Error("infeasible x0 should error")
	}
	m, err := NewMaster(simplex.Uniform(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.HandleCost(CostReport{Round: 1, From: 9, Cost: 1}); !errors.Is(err, ErrRejected) {
		t.Error("unknown worker should error")
	}
	if _, err := m.HandleCost(CostReport{Round: 0, From: 0, Cost: 1}); !errors.Is(err, ErrRejected) {
		t.Error("stale round should error")
	}
	if _, err := m.HandleCost(CostReport{Round: 1, From: 0, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.HandleCost(CostReport{Round: 1, From: 0, Cost: 1}); !errors.Is(err, ErrRejected) {
		t.Error("duplicate cost should error")
	}
	if _, err := m.HandleDecision(DecisionReport{Round: 1, From: 9}); !errors.Is(err, ErrRejected) {
		t.Error("unknown worker decision should error")
	}
	if _, err := m.HandleDecision(DecisionReport{Round: 0, From: 0}); !errors.Is(err, ErrRejected) {
		t.Error("stale decision should error")
	}
}

func TestMasterBuffersFutureCosts(t *testing.T) {
	m, err := NewMaster(simplex.Uniform(2))
	if err != nil {
		t.Fatal(err)
	}
	// A round-2 cost arrives before round 1 completes: must be buffered,
	// not rejected.
	if _, err := m.HandleCost(CostReport{Round: 2, From: 0, Cost: 5}); err != nil {
		t.Fatalf("future cost should buffer: %v", err)
	}
	if m.Round() != 1 {
		t.Fatalf("round advanced unexpectedly to %d", m.Round())
	}
	outs, err := m.HandleCost(CostReport{Round: 1, From: 0, Cost: 3})
	if err != nil || len(outs) != 0 {
		t.Fatalf("first cost: outs %v err %v", outs, err)
	}
	outs, err = m.HandleCost(CostReport{Round: 1, From: 1, Cost: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Coordinate == nil {
		t.Fatalf("expected coordinate, got %v", outs)
	}
	if outs[0].Coordinate.Straggler != 1 || outs[0].Coordinate.GlobalCost != 7 {
		t.Errorf("coordinate = %+v", outs[0].Coordinate)
	}
	// Completing round 1 must drain the buffered round-2 cost.
	outs, err = m.HandleDecision(DecisionReport{Round: 1, From: 0, Next: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	var sawAssign bool
	for _, o := range outs {
		if o.Assign != nil {
			sawAssign = true
			if math.Abs(o.Assign.Next-0.4) > 1e-12 {
				t.Errorf("assign next = %v, want 0.4", o.Assign.Next)
			}
		}
	}
	if !sawAssign {
		t.Fatal("expected straggler assignment")
	}
	if m.Round() != 2 {
		t.Errorf("round = %d, want 2", m.Round())
	}
	// The buffered round-2 cost for worker 0 must now be in effect:
	// worker 1's round-2 cost completes the collection immediately.
	outs, err = m.HandleCost(CostReport{Round: 2, From: 1, Cost: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Coordinate == nil || outs[0].Coordinate.Round != 2 {
		t.Fatalf("expected round-2 coordinate, got %+v", outs)
	}
}

func TestMasterSingleWorker(t *testing.T) {
	m, err := NewMaster([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := m.HandleCost(CostReport{Round: 1, From: 0, Cost: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sawCoord, sawAssign bool
	for _, o := range outs {
		if o.Coordinate != nil {
			sawCoord = true
		}
		if o.Assign != nil {
			sawAssign = true
			if o.Assign.Next != 1 {
				t.Errorf("single worker assign = %v, want 1", o.Assign.Next)
			}
		}
	}
	if !sawCoord || !sawAssign {
		t.Errorf("single worker outputs incomplete: %+v", outs)
	}
	if m.Round() != 2 {
		t.Errorf("round = %d, want 2", m.Round())
	}
}

func TestWorkerValidation(t *testing.T) {
	if _, err := NewWorker(-1, 3, 0.3); err == nil {
		t.Error("negative id should error")
	}
	if _, err := NewWorker(3, 3, 0.3); err == nil {
		t.Error("id out of range should error")
	}
	if _, err := NewWorker(0, 3, 1.5); err == nil {
		t.Error("x0 > 1 should error")
	}
	w, err := NewWorker(0, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Observe(1, nil); err == nil {
		t.Error("nil func should error")
	}
	if _, err := w.HandleCoordinate(Coordinate{Round: 1}); err == nil {
		t.Error("coordinate before observe should error")
	}
	if _, err := w.Observe(1, costfn.Affine{Slope: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Observe(1, costfn.Affine{Slope: 1}); err == nil {
		t.Error("double observe should error")
	}
	if _, err := w.HandleCoordinate(Coordinate{Round: 7}); err == nil {
		t.Error("wrong round coordinate should error")
	}
	// Straggler path.
	dec, err := w.HandleCoordinate(Coordinate{Round: 1, GlobalCost: 1, Alpha: 0.1, Straggler: 0})
	if err != nil {
		t.Fatal(err)
	}
	if dec != nil {
		t.Error("straggler must not produce a decision")
	}
	if err := w.HandleAssign(StragglerAssign{Round: 2, To: 0, Next: 0.5}); err == nil {
		t.Error("wrong-round assign should error")
	}
	if err := w.HandleAssign(StragglerAssign{Round: 1, To: 1, Next: 0.5}); err == nil {
		t.Error("misaddressed assign should error")
	}
	if err := w.HandleAssign(StragglerAssign{Round: 1, To: 0, Next: 1.5}); err == nil {
		t.Error("out-of-range assign should error")
	}
	if err := w.HandleAssign(StragglerAssign{Round: 1, To: 0, Next: 0.5}); err != nil {
		t.Fatal(err)
	}
	if w.X() != 0.5 || w.Round() != 2 {
		t.Errorf("after assign: x = %v round = %d", w.X(), w.Round())
	}
}

func TestPeerValidation(t *testing.T) {
	if _, err := NewPeer(0, []float64{0.4, 0.4}); err == nil {
		t.Error("infeasible x0 should error")
	}
	if _, err := NewPeer(5, simplex.Uniform(3)); err == nil {
		t.Error("id out of range should error")
	}
	p, err := NewPeer(0, simplex.Uniform(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Observe(1, nil); err == nil {
		t.Error("nil func should error")
	}
	if _, err := p.HandleShare(PeerShare{Round: 1, From: 9}); !errors.Is(err, ErrRejected) {
		t.Error("unknown peer share should error")
	}
	if _, err := p.HandleShare(PeerShare{Round: 0, From: 1}); !errors.Is(err, ErrRejected) {
		t.Error("stale share should error")
	}
	if _, err := p.HandleDecision(PeerDecision{Round: 1, From: 1, To: 2}); !errors.Is(err, ErrRejected) {
		t.Error("misaddressed decision should error")
	}
}

func TestPeerBuffersEarlyMessages(t *testing.T) {
	// Shares arriving before Observe must be buffered and drained.
	x0 := simplex.Uniform(2)
	p0, err := NewPeer(0, x0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p0.HandleShare(PeerShare{Round: 1, From: 1, Cost: 9, LocalAlpha: 1}); err != nil {
		t.Fatalf("early share should buffer: %v", err)
	}
	outs, err := p0.Observe(1, costfn.Affine{Slope: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Peer 0 is the non-straggler (cost 1 < 9): outputs must include its
	// broadcast share, its decision to peer 1, and round completion.
	var share, decision, done bool
	for _, o := range outs {
		if o.Share != nil {
			share = true
		}
		if o.Decision != nil {
			decision = true
			if o.Decision.To != 1 {
				t.Errorf("decision addressed to %d, want 1", o.Decision.To)
			}
		}
		if o.Done {
			done = true
		}
	}
	if !share || !decision || !done {
		t.Errorf("outputs incomplete: share %v decision %v done %v", share, decision, done)
	}
	if p0.Round() != 2 {
		t.Errorf("round = %d, want 2", p0.Round())
	}
}

func TestPeerSingle(t *testing.T) {
	p, err := NewPeer(0, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := p.Observe(3, costfn.Affine{Slope: 3})
	if err != nil {
		t.Fatal(err)
	}
	var done bool
	for _, o := range outs {
		if o.Done {
			done = true
		}
	}
	if !done || p.X() != 1 || p.Round() != 2 {
		t.Errorf("single peer: done %v x %v round %d", done, p.X(), p.Round())
	}
}

// TestMasterEvict covers the master's fail-stop transitions: evicting
// the last missing worker completes the cost phase over the survivors,
// reports from an evicted worker are dropped, and evicting the
// straggler mid-decision ends the round without an assignment once the
// live decisions are in.
func TestMasterEvict(t *testing.T) {
	m, err := NewMaster(simplex.Uniform(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []float64{1, 3, 2} {
		if _, err := m.HandleCost(CostReport{Round: 1, From: i, Cost: c}); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Missing(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Missing = %v, want [3]", got)
	}
	outs, err := m.Evict(3)
	if err != nil || len(outs) != 1 || outs[0].Coordinate == nil || outs[0].Coordinate.Straggler != 1 {
		t.Fatalf("Evict(3) = %+v, %v; want the coordinate naming straggler 1", outs, err)
	}
	if outs, err := m.HandleCost(CostReport{Round: 1, From: 3, Cost: 9}); err != nil || outs != nil {
		t.Fatalf("late report from an evicted worker = %+v, %v; want dropped", outs, err)
	}
	if outs, err := m.HandleDecision(DecisionReport{Round: 1, From: 0, Next: 0.3}); err != nil || outs != nil {
		t.Fatalf("first decision = %+v, %v", outs, err)
	}
	outs, err = m.HandleDecision(DecisionReport{Round: 1, From: 2, Next: 0.3})
	if err != nil || len(outs) != 1 || outs[0].Assign == nil {
		t.Fatalf("last decision = %+v, %v; want the assignment", outs, err)
	}
	// Worker 3's frozen quarter folds into the straggler's remainder.
	if got := outs[0].Assign.Next; math.Abs(got-0.4) > 1e-12 {
		t.Errorf("straggler remainder = %v, want 0.4", got)
	}
	if want := AlphaCapScaled(0.4, 3, 0); m.Alpha() > want {
		t.Errorf("alpha %v above the rule-(7) cap %v over 3 live workers", m.Alpha(), want)
	}

	// Round 2: the straggler dies after the coordinate.
	for i, c := range []float64{5, 1, 2} {
		if _, err := m.HandleCost(CostReport{Round: 2, From: i, Cost: c}); err != nil {
			t.Fatal(err)
		}
	}
	if outs, err := m.Evict(0); err != nil || outs != nil {
		t.Fatalf("Evict(straggler) = %+v, %v; want to wait for the live decisions", outs, err)
	}
	if _, err := m.HandleDecision(DecisionReport{Round: 2, From: 1, Next: 0.5}); err != nil {
		t.Fatal(err)
	}
	outs, err = m.HandleDecision(DecisionReport{Round: 2, From: 2, Next: 0.5})
	if err != nil || len(outs) != 0 || m.Round() != 3 {
		t.Fatalf("round without a live straggler: outs %+v, err %v, round %d; want no assignment and round 3", outs, err, m.Round())
	}
	if got := m.Survivors(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Survivors = %v, want [1 2]", got)
	}
}
