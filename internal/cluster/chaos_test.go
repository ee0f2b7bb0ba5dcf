package cluster

import (
	"context"
	"math"
	"testing"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/simplex"
	"dolbie/internal/wire"
)

// chaosStack builds the lossy-chaos stack for node i: the reliability
// layer above the chaos wrapper, as required for the drop/duplicate/
// reorder fault classes.
func chaosStack(net *MemNet, chaos *Chaos, n int, retry time.Duration) []Transport {
	ts := make([]Transport, n)
	for i := range ts {
		ts[i] = NewReliable(i, chaos.Wrap(i, net.Node(i)), retry)
	}
	return ts
}

func closeAll(t *testing.T, ts []Transport) {
	t.Helper()
	for _, tr := range ts {
		if err := tr.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}
}

// TestChaosLossyFullyDistributed runs a plain (non-resilient) Algorithm 2
// deployment over a chaos transport injecting drops, duplicates, and
// reordering, masked by the reliability layer — and requires the exact
// same trajectory as a fault-free run, proving the chaos wrapper is
// protocol-transparent under Reliable.
func TestChaosLossyFullyDistributed(t *testing.T) {
	const n, rounds = 3, 12
	x0 := simplex.Uniform(n)
	sources := func() []CostSource {
		srcs := make([]CostSource, n)
		for i := range srcs {
			srcs[i] = instSource(i)
		}
		return srcs
	}

	clean, err := FullyDistributedDeployment(context.Background(), memTransports(NewMemNet(), n), x0, rounds, sources())
	if err != nil {
		t.Fatal(err)
	}

	chaos := NewChaos(ChaosConfig{
		Seed:          42,
		DropProb:      0.2,
		DuplicateProb: 0.15,
		ReorderProb:   0.15,
		Jitter:        500 * time.Microsecond,
	})
	ts := chaosStack(NewMemNet(), chaos, n, 5*time.Millisecond)
	defer closeAll(t, ts)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	faulty, err := FullyDistributedDeployment(ctx, ts, x0, rounds, sources())
	if err != nil {
		t.Fatalf("deployment under chaos: %v", err)
	}
	for i := range clean {
		for tt := range clean[i].Played {
			if math.Abs(clean[i].Played[tt]-faulty[i].Played[tt]) > 1e-12 {
				t.Fatalf("peer %d round %d: chaos trajectory %v != clean %v", i, tt+1, faulty[i].Played[tt], clean[i].Played[tt])
			}
		}
	}
	stats := chaos.Stats()
	if stats.Drops == 0 || stats.Duplicates == 0 || stats.Reorders == 0 {
		t.Fatalf("expected all configured fault classes to fire, got %+v", stats)
	}
	if stats.Crashes != 0 || stats.PartitionDrops != 0 {
		t.Fatalf("unconfigured fault classes fired: %+v", stats)
	}
}

// TestChaosCrashTransport checks the fail-stop contract of an injected
// crash at the transport level: no message of the crash round leaves the
// node and every later operation fails with ErrChaosCrashed.
func TestChaosCrashTransport(t *testing.T) {
	net := NewMemNet()
	chaos := NewChaos(ChaosConfig{Seed: 1, Crashes: []ChaosCrash{{Node: 0, Round: 3}}})
	tr0 := chaos.Wrap(0, net.Node(0))
	tr1 := net.Node(1)
	defer tr0.Close()
	defer tr1.Close()
	ctx := context.Background()

	share := func(round int) Envelope {
		return wire.NewEnvelope(0, 1, core.PeerShare{Round: round, From: 0, Cost: 1, LocalAlpha: 0.5})
	}
	if _, err := tr0.Send(ctx, 1, share(2)); err != nil {
		t.Fatalf("pre-crash send: %v", err)
	}
	if _, err := tr0.Send(ctx, 1, share(3)); err == nil {
		t.Fatal("crash-round send should fail")
	}
	if _, err := tr0.Send(ctx, 1, share(2)); !errorsIsChaosCrashed(err) {
		t.Fatalf("post-crash send: %v, want ErrChaosCrashed", err)
	}
	rctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	if _, _, err := tr0.Recv(rctx); !errorsIsChaosCrashed(err) {
		t.Fatalf("post-crash recv: %v, want ErrChaosCrashed", err)
	}
	// The peer side saw exactly the one pre-crash message.
	env, _, err := tr1.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := env.Msg.(core.PeerShare); !ok || s.Round != 2 {
		t.Fatalf("delivered %+v, want a round-2 share", env.Msg)
	}
	if got := chaos.Stats().Crashes; got != 1 {
		t.Fatalf("crash fault count = %d, want 1", got)
	}
}

func errorsIsChaosCrashed(err error) bool {
	for ; err != nil; err = unwrapOnce(err) {
		if err == ErrChaosCrashed {
			return true
		}
	}
	return false
}

func unwrapOnce(err error) error {
	type unwrapper interface{ Unwrap() error }
	if u, ok := err.(unwrapper); ok {
		return u.Unwrap()
	}
	return nil
}

// TestReliableInnerDeathPropagates checks that the reliability layer
// surfaces the death of its inner transport (the chaos crash path)
// instead of blocking Recv forever.
func TestReliableInnerDeathPropagates(t *testing.T) {
	net := NewMemNet()
	inner := net.Node(0)
	rel := NewReliable(0, inner, 5*time.Millisecond)
	defer rel.Close()
	// Kill the inner transport out from under the reliability layer.
	if err := inner.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, err := rel.Recv(ctx); err == nil || ctx.Err() != nil {
		t.Fatalf("recv after inner death: err=%v ctx=%v, want prompt inner-transport error", err, ctx.Err())
	}
	if _, err := rel.Send(ctx, 1, wire.NewEnvelope(0, 1, core.PeerShare{Round: 1, From: 0})); err == nil {
		t.Fatal("send after inner death should fail")
	}
}

// crashScenario runs the acceptance scenario: a 4-peer fully-distributed
// deployment for 30 rounds with peer 2 fail-stopped at round 10 by the
// chaos wrapper.
func crashScenario(t *testing.T, seed int64) []ElasticPeerResult {
	t.Helper()
	const n, rounds = 4, 30
	chaos := NewChaos(ChaosConfig{Seed: seed, Crashes: []ChaosCrash{{Node: 2, Round: 10}}})
	net := NewMemNet()
	ts := make([]Transport, n)
	for i := range ts {
		ts[i] = chaos.Wrap(i, net.Node(i))
	}
	defer closeAll(t, ts)
	srcs := make([]CostSource, n)
	for i := range srcs {
		srcs[i] = instSource(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := ElasticDeployment(ctx, ts, ElasticDeploymentConfig{
		X0: simplex.Uniform(n), Rounds: rounds, Sources: srcs,
		Peer: ElasticPeerConfig{RoundTimeout: 150 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("fail-stop deployment: %v", err)
	}
	if got := chaos.Stats().Crashes; got != 1 {
		t.Fatalf("injected crashes = %d, want 1", got)
	}
	return res
}

// sumPlayed adds the workload the given peers played in `round`
// (1-indexed); peers that stopped before it contribute nothing.
func sumPlayed(res []ElasticPeerResult, peers []int, round int) float64 {
	var sum float64
	for _, i := range peers {
		if len(res[i].Played) >= round {
			sum += res[i].Played[round-1]
		}
	}
	return sum
}

// assertReabsorbed finds the first round at or after detection where the
// survivors' played shares again sum to 1, and fails if that takes more
// than 5 rounds (the ISSUE acceptance bound) or if the balance is lost
// again afterwards.
func assertReabsorbed(t *testing.T, res []ElasticPeerResult, survivors []int, detection, lastRound int) int {
	t.Helper()
	reabsorbed := -1
	for r := detection; r <= lastRound; r++ {
		if math.Abs(sumPlayed(res, survivors, r)-1) < 1e-9 {
			reabsorbed = r
			break
		}
	}
	if reabsorbed < 0 {
		t.Fatalf("survivors never reabsorbed the load after detection round %d", detection)
	}
	if reabsorbed-detection > 5 {
		t.Fatalf("reabsorbed at round %d, more than 5 rounds after detection %d", reabsorbed, detection)
	}
	for r := reabsorbed; r <= lastRound; r++ {
		if s := sumPlayed(res, survivors, r); math.Abs(s-1) > 1e-9 {
			t.Fatalf("round %d: survivor load sum %v after reabsorption", r, s)
		}
	}
	return reabsorbed
}

// TestResilientPeerCrash is the crash half of the ISSUE acceptance
// criterion: peers detect the silent peer via their collection deadline,
// evict it everywhere, reabsorb its load within 5 rounds, and the whole
// run is deterministic per seed.
func TestResilientPeerCrash(t *testing.T) {
	res := crashScenario(t, 7)
	survivors := []int{0, 1, 3}
	if !res[2].Crashed {
		t.Fatalf("peer 2 should report its injected crash: %+v", res[2])
	}
	if res[2].Rounds != 9 {
		t.Fatalf("peer 2 completed %d rounds, want 9 (crashes broadcasting its round-10 share)", res[2].Rounds)
	}
	for _, i := range survivors {
		if res[i].Rounds != 30 {
			t.Fatalf("survivor %d completed %d rounds, want 30", i, res[i].Rounds)
		}
		if got := res[i].Evicted; len(got) != 1 || got[0] != 2 {
			t.Fatalf("survivor %d evicted %v, want [2]", i, got)
		}
		if got := res[i].EvictionRound[2]; got != 10 {
			t.Fatalf("survivor %d evicted peer 2 in round %d, want 10", i, got)
		}
		if got := res[i].Survivors; len(got) != 3 {
			t.Fatalf("survivor %d final view %v, want 3 peers", i, got)
		}
	}
	// Rounds 1-9 are balanced, round 10 leaks peer 2's frozen share, and
	// the next completed round's straggler remainder restores the simplex.
	if s := sumPlayed(res, []int{0, 1, 2, 3}, 9); math.Abs(s-1) > 1e-9 {
		t.Fatalf("pre-crash round 9 sum %v, want 1", s)
	}
	if s := sumPlayed(res, survivors, 10); s >= 1-1e-9 {
		t.Fatalf("crash round 10 survivor sum %v, want < 1 (peer 2's share frozen)", s)
	}
	assertReabsorbed(t, res, survivors, 10, 30)

	// Determinism: an identical seed reproduces the trajectory exactly.
	again := crashScenario(t, 7)
	for _, i := range survivors {
		if len(res[i].Played) != len(again[i].Played) {
			t.Fatalf("peer %d: run lengths differ (%d vs %d)", i, len(res[i].Played), len(again[i].Played))
		}
		for r := range res[i].Played {
			if res[i].Played[r] != again[i].Played[r] {
				t.Fatalf("peer %d round %d: %v vs %v across same-seed runs", i, r+1, res[i].Played[r], again[i].Played[r])
			}
		}
	}
}

// TestChaosForgetsDeliveredMessages checks that the chaos layer keeps
// per-frame state only for frames still in flight: once 2,000 frames
// have crossed a 30%-lossy link beneath Reliable and every one is
// acknowledged, neither side holds an attempt counter or a frame that
// passed out of order, though retransmissions raced their acks and were
// dropped on the way.
func TestChaosForgetsDeliveredMessages(t *testing.T) {
	const total = 2000
	net := NewMemNet()
	chaos := NewChaos(ChaosConfig{Seed: 5, DropProb: 0.3})
	c0, c1 := chaos.Wrap(0, net.Node(0)), chaos.Wrap(1, net.Node(1))
	a, b := NewReliable(0, c0, 2*time.Millisecond), NewReliable(1, c1, 2*time.Millisecond)
	defer closeAll(t, []Transport{a, b})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() {
		for i := 0; i < total; i++ {
			if _, err := a.Send(ctx, 1, wire.NewEnvelope(0, 1, core.CostReport{Round: i + 1, From: 0})); err != nil {
				return
			}
		}
	}()
	for i := 0; i < total; i++ {
		if _, _, err := b.Recv(ctx); err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
	}
	for {
		a.mu.Lock()
		unacked := len(a.unacked[1])
		a.mu.Unlock()
		if unacked == 0 {
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("%d frames never acknowledged", unacked)
		}
		time.Sleep(time.Millisecond)
	}
	if chaos.Stats().Drops == 0 {
		t.Fatal("no drops injected")
	}
	for _, c := range []Transport{c0, c1} {
		ct := c.(*chaosTransport)
		ct.mu.Lock()
		held, ahead, copies := len(ct.attempts), 0, uint64(0)
		for _, w := range ct.passed {
			ahead += len(w.above)
			copies += w.copies
		}
		ct.mu.Unlock()
		if held != 0 || ahead != 0 {
			t.Errorf("node %d holds %d attempt counters and %d out-of-order frames after every frame was acknowledged", ct.id, held, ahead)
		}
		t.Logf("node %d saw %d copies of frames that had passed", ct.id, copies)
	}
}
