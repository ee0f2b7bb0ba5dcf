package cluster

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/costfn"
	"dolbie/internal/simplex"
)

// runElasticDeployment wires an elastic deployment over a fresh MemNet
// (optionally chaos-wrapped) and fails the test on deployment errors.
func runElasticDeployment(t *testing.T, dc ElasticDeploymentConfig, chaos *Chaos) []ElasticPeerResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	total := len(dc.X0) + len(dc.Joiners)
	net := NewMemNet()
	ts := make([]Transport, total)
	for i := range ts {
		ts[i] = net.Node(i)
		if chaos != nil {
			ts[i] = chaos.Wrap(i, ts[i])
		}
	}
	defer closeAll(t, ts)
	res, err := ElasticDeployment(ctx, ts, dc)
	if err != nil {
		t.Fatalf("elastic deployment: %v", err)
	}
	return res
}

// healthyElasticConfig is a no-churn deployment over n peers.
func healthyElasticConfig(n, rounds int, topo Topology, fanout int) ElasticDeploymentConfig {
	srcs := make([]CostSource, n)
	for i := range srcs {
		srcs[i] = instSource(i)
	}
	return ElasticDeploymentConfig{
		X0:      simplex.Uniform(n),
		Rounds:  rounds,
		Sources: srcs,
		Peer: ElasticPeerConfig{
			RoundTimeout: 5 * time.Second,
			Topology:     topo,
			Fanout:       fanout,
		},
	}
}

// TestElasticFlatMatchesResilient pins the degenerate-case contract: a
// healthy flat, no-join deployment with fail-stop deadlines armed is
// message-for-message the paper's protocol as FullyDistributedDeployment
// runs it (no deadline), so every per-peer trajectory and even the
// traffic counts must be identical.
func TestElasticFlatMatchesResilient(t *testing.T) {
	const n, rounds = 5, 15
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	srcs := make([]CostSource, n)
	for i := range srcs {
		srcs[i] = instSource(i)
	}
	net := NewMemNet()
	ts := make([]Transport, n)
	for i := range ts {
		ts[i] = net.Node(i)
	}
	defer closeAll(t, ts)
	want, err := FullyDistributedDeployment(ctx, ts, simplex.Uniform(n), rounds, srcs)
	if err != nil {
		t.Fatalf("fully-distributed deployment: %v", err)
	}

	got := runElasticDeployment(t, healthyElasticConfig(n, rounds, TopologyFlat, 0), nil)
	for i := range want {
		g := PeerResult{ID: got[i].ID, Played: got[i].Played, Costs: got[i].Costs, FinalLocalAlpha: got[i].FinalLocalAlpha, Traffic: got[i].Traffic}
		if !reflect.DeepEqual(g, want[i]) {
			t.Errorf("peer %d: timed flat result diverged from the untimed run:\n got %+v\nwant %+v", i, g, want[i])
		}
		if got[i].Rounds != rounds || len(got[i].Evicted) != 0 || got[i].SelfEvicted || got[i].Crashed {
			t.Errorf("peer %d: healthy run ended early or evicted: %+v", i, got[i])
		}
		if got[i].AggDepth != 0 {
			t.Errorf("peer %d: AggDepth = %d in flat mode, want 0", i, got[i].AggDepth)
		}
		if got[i].RosterVersion != 0 {
			t.Errorf("peer %d: roster version = %d with no churn, want 0", i, got[i].RosterVersion)
		}
	}
}

// TestElasticTreeMatchesFlat pins the overlay's core guarantee: the
// tree reduction is an arithmetic-free fold of the same consensus, so
// every played trajectory is bit-identical to the flat exchange while
// per-peer traffic drops from O(N) to O(fanout) messages per round.
func TestElasticTreeMatchesFlat(t *testing.T) {
	const n, rounds, fanout = 9, 15, 3
	flat := runElasticDeployment(t, healthyElasticConfig(n, rounds, TopologyFlat, 0), nil)
	tree := runElasticDeployment(t, healthyElasticConfig(n, rounds, TopologyTree, fanout), nil)
	for i := range flat {
		if !reflect.DeepEqual(tree[i].Played, flat[i].Played) {
			t.Errorf("peer %d: tree Played diverged from flat:\n got %v\nwant %v", i, tree[i].Played, flat[i].Played)
		}
		if !reflect.DeepEqual(tree[i].Costs, flat[i].Costs) {
			t.Errorf("peer %d: tree Costs diverged from flat", i)
		}
		if tree[i].FinalX != flat[i].FinalX {
			t.Errorf("peer %d: tree FinalX = %v, flat %v", i, tree[i].FinalX, flat[i].FinalX)
		}
		if tree[i].FinalLocalAlpha != flat[i].FinalLocalAlpha {
			t.Errorf("peer %d: tree FinalLocalAlpha = %v, flat %v", i, tree[i].FinalLocalAlpha, flat[i].FinalLocalAlpha)
		}
		if tree[i].AggDepth != 2 {
			t.Errorf("peer %d: AggDepth = %d, want 2 for 9 peers at fanout 3", i, tree[i].AggDepth)
		}
	}
	// Interior peers in the tree exchange O(fanout) messages per round
	// instead of O(N): total deployment traffic must shrink.
	var flatMsgs, treeMsgs int
	for i := range flat {
		flatMsgs += flat[i].Traffic.MsgsSent
		treeMsgs += tree[i].Traffic.MsgsSent
	}
	if treeMsgs >= flatMsgs {
		t.Errorf("tree total msgs = %d, not below flat %d", treeMsgs, flatMsgs)
	}
}

// elasticJoinConfig is a deployment with one scheduled joiner.
func elasticJoinConfig(n, rounds, joinRound int, topo Topology, fanout int) ElasticDeploymentConfig {
	dc := healthyElasticConfig(n, rounds, topo, fanout)
	dc.Joiners = []ElasticJoin{{ID: n, Contact: n - 1, Round: joinRound, Source: instSource(n)}}
	return dc
}

// checkJoin asserts the shared join postconditions: every incumbent
// admits the joiner at the announced boundary, the joiner plays from
// that round to the end, and the final assignment is again a simplex
// point over n+1 peers.
func checkJoin(t *testing.T, res []ElasticPeerResult, n, rounds, joinRound int) {
	t.Helper()
	joiner := res[n]
	wantApply := joinRound + 2
	if joiner.FirstRound != wantApply {
		t.Fatalf("joiner FirstRound = %d, want %d", joiner.FirstRound, wantApply)
	}
	if joiner.Rounds != rounds {
		t.Errorf("joiner completed %d rounds, want %d", joiner.Rounds, rounds)
	}
	if len(joiner.Played) != rounds-wantApply+1 {
		t.Errorf("joiner played %d rounds, want %d", len(joiner.Played), rounds-wantApply+1)
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(res[i].Admitted, []int{n}) {
			t.Errorf("peer %d admitted %v, want [%d]", i, res[i].Admitted, n)
		}
		if got := res[i].AdmissionRound[n]; got != wantApply {
			t.Errorf("peer %d admitted joiner at round %d, want %d", i, got, wantApply)
		}
		if res[i].RosterVersion != joiner.RosterVersion {
			t.Errorf("peer %d roster version %d != joiner's %d", i, res[i].RosterVersion, joiner.RosterVersion)
		}
		if len(res[i].Survivors) != n+1 {
			t.Errorf("peer %d survivors = %v, want %d members", i, res[i].Survivors, n+1)
		}
	}
	last := make([]float64, n+1)
	for i := range res {
		if len(res[i].Played) == 0 {
			t.Fatalf("peer %d played nothing", i)
		}
		last[i] = res[i].Played[len(res[i].Played)-1]
	}
	if err := simplex.Check(last, 1e-7); err != nil {
		t.Errorf("final assignment after join: %v", err)
	}
	// Version monotonicity: the soak invariant, checked here too.
	for i := range res {
		var prev uint64
		for _, ev := range res[i].RosterLog {
			if ev.Version <= prev {
				t.Errorf("peer %d: roster version %d not strictly increasing after %d", i, ev.Version, prev)
			}
			prev = ev.Version
		}
	}
}

// TestElasticJoinFlat admits one joiner mid-run in flat mode. The
// request goes to a non-coordinator to exercise forwarding.
func TestElasticJoinFlat(t *testing.T) {
	const n, rounds, joinRound = 3, 12, 4
	res := runElasticDeployment(t, elasticJoinConfig(n, rounds, joinRound, TopologyFlat, 0), nil)
	checkJoin(t, res, n, rounds, joinRound)
}

// TestElasticJoinTree admits one joiner mid-run over the aggregation
// tree: the announcement relays down tree links and the joiner slots in
// as a new leaf.
func TestElasticJoinTree(t *testing.T) {
	const n, rounds, joinRound = 5, 12, 4
	res := runElasticDeployment(t, elasticJoinConfig(n, rounds, joinRound, TopologyTree, 2), nil)
	checkJoin(t, res, n, rounds, joinRound)
}

// TestElasticTreeCrashRecovery crashes one mid-tree peer during a tree
// deployment: survivors must rebuild the overlay, evict the victim
// everywhere, reabsorb its load, and finish all rounds.
func TestElasticTreeCrashRecovery(t *testing.T) {
	const n, rounds, victim = 7, 25, 1
	chaos := NewChaos(ChaosConfig{Seed: 1, Crashes: []ChaosCrash{{Node: victim, Round: 8}}})
	dc := healthyElasticConfig(n, rounds, TopologyTree, 2)
	dc.Peer.RoundTimeout = 200 * time.Millisecond
	res := runElasticDeployment(t, dc, chaos)

	survivors := []int{0, 2, 3, 4, 5, 6}
	detection := 0
	for _, i := range survivors {
		if res[i].Rounds != rounds {
			t.Errorf("survivor %d completed %d rounds, want %d", i, res[i].Rounds, rounds)
		}
		found := false
		for _, ev := range res[i].Evicted {
			if ev == victim {
				found = true
				if r := res[i].EvictionRound[victim]; r > detection {
					detection = r
				}
			}
		}
		if !found {
			t.Errorf("survivor %d never evicted peer %d (evicted %v)", i, victim, res[i].Evicted)
		}
	}
	if !res[victim].Crashed {
		t.Errorf("victim result: Crashed = false, want true")
	}
	// The survivor simplex is restored within a few rounds of the last
	// detection (straggler remainder absorption, same bound as flat).
	reabsorbed := -1
	for r := detection; r <= rounds; r++ {
		var sum float64
		for _, i := range survivors {
			if len(res[i].Played) >= r {
				sum += res[i].Played[r-1]
			}
		}
		if math.Abs(sum-1) < 1e-9 {
			reabsorbed = r
			break
		}
	}
	if reabsorbed < 0 {
		t.Fatalf("survivors never reabsorbed the victim's load after round %d", detection)
	}
}

// slowSource wraps a cost source with a per-observation delay: the
// time a peer spends executing its own workload.
type slowSource struct {
	inner CostSource
	delay time.Duration
}

// Observe implements CostSource.
func (s slowSource) Observe(round int, x float64) (float64, costfn.Func, error) {
	time.Sleep(s.delay)
	return s.inner.Observe(round, x)
}

// TestElasticSlowObserveIsNotTimedOut pins where a round's collection
// deadline starts, on real timers: after the peer's own Observe and the
// round's sends. Every peer's workload takes 150 ms, longer than the
// 100 ms RoundTimeout, and no peer may be evicted in either topology.
func TestElasticSlowObserveIsNotTimedOut(t *testing.T) {
	const n, rounds = 4, 3
	for _, topo := range []Topology{TopologyFlat, TopologyTree} {
		t.Run(topo.String(), func(t *testing.T) {
			t.Parallel()
			dc := healthyElasticConfig(n, rounds, topo, 2)
			dc.Peer.RoundTimeout = 100 * time.Millisecond
			for i, src := range dc.Sources {
				dc.Sources[i] = slowSource{inner: src, delay: 150 * time.Millisecond}
			}
			for i, r := range runElasticDeployment(t, dc, nil) {
				if r.Rounds != rounds || len(r.Evicted) != 0 || r.SelfEvicted {
					t.Errorf("peer %d: %d rounds, evicted %v, self-evicted %v; want %d rounds and no eviction", i, r.Rounds, r.Evicted, r.SelfEvicted, rounds)
				}
			}
		})
	}
}

// TestJoinElasticPeer drives the public joiner over MemNet, with the
// test playing the contact: an id outside [0, 65536) is rejected before
// anything is sent, a denial ends the join with ErrJoinDenied, and a
// contact that never answers ends it with ErrJoinTimeout after 10
// RoundTimeouts.
func TestJoinElasticPeer(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	net := NewMemNet()
	contact := net.Node(0)
	if _, err := JoinElasticPeer(ctx, net.Node(1), maxPeerID, 0, 10, instSource(1), ElasticPeerConfig{}); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-range joiner id: err = %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := JoinElasticPeer(ctx, net.Node(5), 5, 0, 10, instSource(5), ElasticPeerConfig{})
		done <- err
	}()
	env, _, err := contact.Recv(ctx)
	if err != nil || env.Kind != KindJoin || env.From != 5 {
		t.Fatalf("contact got %v from %d (err %v), want a join request from 5", env.Kind, env.From, err)
	}
	if _, err := contact.Send(ctx, 5, rosterUpdateEnvelope(5, core.RosterUpdate{From: 0, Join: 5})); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrJoinDenied) {
		t.Fatalf("denied join: err = %v, want ErrJoinDenied", err)
	}
	start := time.Now()
	_, err = JoinElasticPeer(ctx, net.Node(6), 6, 0, 10, instSource(6), ElasticPeerConfig{RoundTimeout: 10 * time.Millisecond})
	if !errors.Is(err, ErrJoinTimeout) || time.Since(start) < 100*time.Millisecond {
		t.Fatalf("unanswered join: err = %v after %v, want ErrJoinTimeout after 100ms", err, time.Since(start))
	}
}

// TestRosterVersioning unit-tests the membership module: joins and
// evictions bump the version, ids are single-use, and the event log
// records every change in order.
func TestRosterVersioning(t *testing.T) {
	r := NewRoster([]int{0, 1, 2})
	if r.Version() != 0 || r.Size() != 3 || r.Coordinator() != 0 {
		t.Fatalf("fresh roster: version=%d size=%d coord=%d", r.Version(), r.Size(), r.Coordinator())
	}
	if !r.ApplyEvict(1, 4) {
		t.Fatal("evicting live peer 1 reported no-op")
	}
	if r.ApplyEvict(1, 5) {
		t.Error("double eviction reported applied")
	}
	if err := r.ApplyJoin(3, 6, 7); err != nil {
		t.Fatalf("join: %v", err)
	}
	if err := r.ApplyJoin(1, 7, 9); err == nil {
		t.Error("readmitting evicted id 1 succeeded, want error")
	}
	if r.Version() != 7 {
		t.Errorf("version = %d, want announced 7", r.Version())
	}
	// A stale announced version still advances the local version.
	if err := r.ApplyJoin(4, 8, 2); err != nil {
		t.Fatalf("join: %v", err)
	}
	if r.Version() != 8 {
		t.Errorf("version = %d, want 8 (monotone past stale announcement)", r.Version())
	}
	want := []int{0, 2, 3, 4}
	if got := r.Members(); !reflect.DeepEqual(got, want) {
		t.Errorf("members = %v, want %v", got, want)
	}
	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("event log has %d entries, want 3", len(events))
	}
	var prev uint64
	for _, ev := range events {
		if ev.Version <= prev {
			t.Errorf("event version %d not strictly increasing after %d", ev.Version, prev)
		}
		prev = ev.Version
	}
}

// TestAggTreeShape unit-tests the overlay layout: deterministic
// positions over sorted ids, parent/child symmetry, and depth.
func TestAggTreeShape(t *testing.T) {
	ids := []int{5, 0, 9, 2, 7, 3, 11, 4, 6} // 9 members, deliberately unsorted
	tr := newAggTree(ids, 3)
	if tr.root() != 0 {
		t.Errorf("root = %d, want lowest id 0", tr.root())
	}
	if tr.depth() != 2 {
		t.Errorf("depth = %d, want 2 for 9 members at fanout 3", tr.depth())
	}
	// Every non-root member's parent must list it as a child.
	for _, id := range ids {
		parent, ok := tr.parent(id)
		if id == tr.root() {
			if ok {
				t.Errorf("root %d has parent %d", id, parent)
			}
			continue
		}
		if !ok {
			t.Errorf("member %d has no parent", id)
			continue
		}
		found := false
		for _, c := range tr.children(parent) {
			if c == id {
				found = true
			}
		}
		if !found {
			t.Errorf("parent %d does not list %d among children %v", parent, id, tr.children(parent))
		}
	}
	// Positions follow sorted order: root's children are the next ids.
	if got := tr.children(0); !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Errorf("root children = %v, want [2 3 4]", got)
	}
	if tr.contains(8) {
		t.Error("tree claims to contain non-member 8")
	}
	// Single node: no parent, no children, depth 0.
	solo := newAggTree([]int{4}, 3)
	if solo.depth() != 0 || len(solo.children(4)) != 0 {
		t.Errorf("single-node tree: depth=%d children=%v", solo.depth(), solo.children(4))
	}
}

// TestTopologyText round-trips the Topology flag values used by the
// scale benchmark's flag.TextVar flag.
func TestTopologyText(t *testing.T) {
	for _, topo := range []Topology{TopologyFlat, TopologyTree} {
		text, err := topo.MarshalText()
		if err != nil {
			t.Fatalf("marshal %v: %v", topo, err)
		}
		var back Topology
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("unmarshal %q: %v", text, err)
		}
		if back != topo {
			t.Errorf("round-trip %v -> %q -> %v", topo, text, back)
		}
	}
	var topo Topology
	if err := topo.UnmarshalText([]byte("ring")); err == nil {
		t.Error("unmarshal of unknown topology succeeded")
	}
}
