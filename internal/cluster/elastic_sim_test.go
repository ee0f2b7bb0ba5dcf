package cluster

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/costfn"
	"dolbie/internal/trace"
	"dolbie/internal/wire"
)

// simNet runs elastic machines on one goroutine in virtual time. Each
// step picks, with a seeded generator, one node that has an input due at
// the current instant — its earliest released message, or its deadline
// when no message is due — feeds it to the machine and hands the
// machine's sends to the network through flush, exactly as runElastic
// does. Time advances only when no node has an input due, to the next
// release or deadline. Partitions, crashes and delays come from a
// ChaosConfig with the chaos transport's own definitions: a partition
// drops a message of a cut round, a crash fail-stops its node on its
// first send of the crash round, and a delivery is released Delay (plus
// the link's DelayModel sample) after its send, in send order at equal
// release times. A test fails on any ChaosConfig field the runner does
// not model.
type simNet struct {
	t     *testing.T
	rng   *rand.Rand
	cfg   ChaosConfig
	now   time.Time
	nodes []*simNode // by id
	seq   uint64
	stats ChaosStats
}

// simNode is one node: its machine and its inbox of scheduled
// deliveries.
type simNode struct {
	m       *elasticMachine
	inbox   simQueue
	procs   map[int]trace.Process // DelayModel processes by sender
	crashed bool
	done    bool
	res     ElasticPeerResult
	err     error
}

// newSimNet registers nodes 0..n-1, whose inboxes queue messages
// before their machines start.
func newSimNet(t *testing.T, seed int64, cfg ChaosConfig, n int) *simNet {
	t.Helper()
	if cfg.Jitter != 0 || cfg.DropProb != 0 || cfg.DuplicateProb != 0 || cfg.ReorderProb != 0 || cfg.Metrics != nil {
		t.Fatalf("simNet models Delay, DelayModel, Partitions and Crashes only: %+v", cfg)
	}
	s := &simNet{t: t, rng: rand.New(rand.NewSource(seed)), cfg: cfg, now: time.Unix(0, 0)}
	for i := 0; i < n; i++ {
		s.nodes = append(s.nodes, &simNode{procs: map[int]trace.Process{}})
	}
	return s
}

// add starts m as node id. A machine added under the id of a finished
// one takes over its inbox, as a fresh transport on the same MemNet
// node would.
func (s *simNet) add(id int, m *elasticMachine) {
	old := s.nodes[id]
	s.nodes[id] = &simNode{m: m, inbox: old.inbox, procs: old.procs}
	m.start()
	s.flush(id)
}

// flush sends everything node id's machine has queued and settles how
// its run ends, with runElastic's classification.
func (s *simNet) flush(id int) {
	n := s.nodes[id]
	send := func(to int, env Envelope) error { return s.send(id, to, env) }
	err := flush(context.Background(), n.m, send, func() time.Time { return s.now })
	switch {
	case err == nil && n.m.finished:
	case err != nil || n.crashed:
		// The send failed on this node's own transport, or its next
		// receive would.
		n.m.res.Crashed = true
	default:
		return
	}
	n.done, n.res, n.err = true, n.m.result(), n.m.err
}

// send is the network: it applies the crash and partition rules and
// schedules the delivery.
func (s *simNet) send(from, to int, env Envelope) error {
	src := s.nodes[from]
	round, _ := wire.Round(env)
	if !src.crashed && s.cfg.crashRound(from) >= 0 && round >= s.cfg.crashRound(from) {
		src.crashed = true
		src.inbox = nil
		s.stats.Crashes++
	}
	if src.crashed {
		return fmt.Errorf("%w (node %d)", ErrChaosCrashed, from)
	}
	if to < 0 || to >= len(s.nodes) {
		return fmt.Errorf("%w: %d", ErrUnknownNode, to)
	}
	dst := s.nodes[to]
	if dst.crashed {
		return nil
	}
	if s.cfg.partitioned(from, to, round) {
		s.stats.PartitionDrops++
		return nil
	}
	heap.Push(&dst.inbox, simMsg{at: s.now.Add(s.cfg.delay(dst.procs, from, to)), seq: s.seq, env: env})
	s.seq++
	return nil
}

// due reports whether node n has an input at the current instant.
func (s *simNet) due(n *simNode) bool {
	if n.m == nil || n.done {
		return false
	}
	if len(n.inbox) > 0 && !n.inbox[0].at.After(s.now) {
		return true
	}
	return !n.m.deadline.IsZero() && !n.m.deadline.After(s.now)
}

// step feeds one due input to a seeded choice of node, advancing time
// first when nothing is due. It reports false once every node is done,
// and fails the test when live nodes wait on nothing.
func (s *simNet) step() bool {
	var ready []int
	for id, n := range s.nodes {
		if s.due(n) {
			ready = append(ready, id)
		}
	}
	if len(ready) == 0 {
		var next time.Time
		live := false
		for _, n := range s.nodes {
			if n.m == nil || n.done {
				continue
			}
			live = true
			if len(n.inbox) > 0 && (next.IsZero() || n.inbox[0].at.Before(next)) {
				next = n.inbox[0].at
			}
			if !n.m.deadline.IsZero() && (next.IsZero() || n.m.deadline.Before(next)) {
				next = n.m.deadline
			}
		}
		if !live {
			return false
		}
		if next.IsZero() {
			s.t.Fatalf("virtual deployment stuck at %v: live nodes wait forever", s.now.Sub(time.Unix(0, 0)))
		}
		s.now = next
		return true
	}
	id := ready[s.rng.Intn(len(ready))]
	n := s.nodes[id]
	if len(n.inbox) > 0 && !n.inbox[0].at.After(s.now) {
		n.m.handle(heap.Pop(&n.inbox).(simMsg).env)
	} else {
		n.m.tick()
	}
	s.flush(id)
	return true
}

// run steps until every node is done, or until stop reports true.
func (s *simNet) run(stop func() bool) {
	for (stop == nil || !stop()) && s.step() {
	}
}

// results returns every node's result and error, by id.
func (s *simNet) results() ([]ElasticPeerResult, []error) {
	res := make([]ElasticPeerResult, len(s.nodes))
	errs := make([]error, len(s.nodes))
	for id, n := range s.nodes {
		if n.done {
			res[id], errs[id] = n.res, n.err
		}
	}
	return res, errs
}

// simMsg is one scheduled delivery; the queue releases by time, then in
// send order, like the chaos transport's heap.
type simMsg struct {
	at  time.Time
	seq uint64
	env Envelope
}

type simQueue []simMsg

func (q simQueue) Len() int { return len(q) }
func (q simQueue) Less(i, j int) bool {
	if q[i].at.Equal(q[j].at) {
		return q[i].seq < q[j].seq
	}
	return q[i].at.Before(q[j].at)
}
func (q simQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *simQueue) Push(x any)   { *q = append(*q, x.(simMsg)) }
func (q *simQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// simPeers runs one incumbent machine per x0 entry under seed and
// returns their results, failing the test on any error.
func simPeers(t *testing.T, seed int64, cfg ChaosConfig, n, rounds int, src func(int) CostSource, ec func(int) ElasticPeerConfig) ([]ElasticPeerResult, ChaosStats) {
	t.Helper()
	s := newSimNet(t, seed, cfg, n)
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = 1 / float64(n)
	}
	for i := 0; i < n; i++ {
		m, err := incumbentMachine(i, x0, rounds, src(i), ec(i), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.add(i, m)
	}
	s.run(nil)
	res, errs := s.results()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("seed %d: peer %d: %v", seed, i, err)
		}
	}
	return res, s.stats
}

// simSeeds is how many scheduler seeds each virtual-time drill covers.
const simSeeds = 24

// TestSimReproducesDeployments checks the runner against the real
// goroutine deployments at N=8, fault-free: every peer's Played, Costs
// and FinalLocalAlpha match bit for bit the flat FullyDistributedDeployment
// and a tree ElasticDeployment with one scheduled join, under every
// scheduler seed.
func TestSimReproducesDeployments(t *testing.T) {
	const n, rounds = 8, 12
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srcs := make([]CostSource, n)
	for i := range srcs {
		srcs[i] = instSource(i)
	}
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = 1 / float64(n)
	}
	flat, err := FullyDistributedDeployment(ctx, memTransports(NewMemNet(), n), x0, rounds, srcs)
	if err != nil {
		t.Fatal(err)
	}
	dc := elasticJoinConfig(n, rounds, 3, TopologyTree, 2)
	tree := runElasticDeployment(t, dc, nil)
	for seed := int64(0); seed < simSeeds; seed++ {
		got, _ := simPeers(t, seed, ChaosConfig{}, n, rounds, instSource, func(int) ElasticPeerConfig { return ElasticPeerConfig{} })
		for i := range flat {
			if !reflect.DeepEqual(got[i].Played, flat[i].Played) || !reflect.DeepEqual(got[i].Costs, flat[i].Costs) || got[i].FinalLocalAlpha != flat[i].FinalLocalAlpha {
				t.Fatalf("seed %d: flat peer %d diverged from FullyDistributedDeployment", seed, i)
			}
		}
		s := newSimNet(t, seed, ChaosConfig{}, n+1)
		schedule := map[int]int{n: dc.Joiners[0].Round}
		j := dc.Joiners[0]
		m, err := joinerMachine(j.ID, j.Contact, rounds, j.Source, dc.Peer, schedule, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.add(j.ID, m)
		for i := 0; i < n; i++ {
			m, err := incumbentMachine(i, dc.X0, rounds, dc.Sources[i], dc.Peer, schedule, nil)
			if err != nil {
				t.Fatal(err)
			}
			s.add(i, m)
		}
		s.run(nil)
		res, errs := s.results()
		for i := range tree {
			if errs[i] != nil {
				t.Fatalf("seed %d: tree peer %d: %v", seed, i, errs[i])
			}
			if !reflect.DeepEqual(res[i].Played, tree[i].Played) || !reflect.DeepEqual(res[i].Costs, tree[i].Costs) || res[i].FinalLocalAlpha != tree[i].FinalLocalAlpha {
				t.Fatalf("seed %d: tree peer %d diverged from ElasticDeployment:\n got %+v\nwant %+v", seed, i, res[i], tree[i])
			}
		}
	}
}

// partitionSource keeps peer 0's cost strictly below everyone else's so
// the straggler is never the partitioned peer — the documented
// limitation of the fail-stop extension (see DESIGN.md's fault model).
// The intercepts are mild enough that the min-max equilibrium keeps
// every peer at a positive share (no peer is fully drained), for any
// survivor subset that can arise here.
func partitionSource(i int) CostSource {
	f := costfn.Affine{Slope: float64(i + 1), Intercept: 0.2 * float64(i)}
	return FuncSource(func(round int, x float64) (float64, costfn.Func, error) {
		return f.Eval(x), f, nil
	})
}

// timeouts gives peer i the i-th round timeout.
func timeouts(d ...time.Duration) func(int) ElasticPeerConfig {
	return func(i int) ElasticPeerConfig { return ElasticPeerConfig{RoundTimeout: d[i]} }
}

// TestResilientPeerAsymmetricPartition: a 3-round asymmetric partition
// of the 0 -> 1 link makes peer 1 declare peer 0 crashed; the notice
// reaches the (living) peer 0, which fail-stops; the survivors reabsorb
// its load within 5 rounds of detection. Under every scheduler seed.
//
// The peers run with staggered detection timeouts (the genuine detector,
// peer 1, fires well before anyone else). A partition — unlike a crash —
// stalls every peer within one round of the victim, so symmetric
// deadlines race over who evicts whom; staggering the timeouts is the
// standard operational remedy and is documented in the fault model
// (DESIGN.md) and the runbook (docs/OPERATIONS.md).
func TestResilientPeerAsymmetricPartition(t *testing.T) {
	const n, rounds = 3, 30
	cfg := ChaosConfig{
		Delay:      15 * time.Millisecond,
		Partitions: []ChaosPartition{{From: 0, To: 1, FromRound: 5, ToRound: 7}},
	}
	for seed := int64(0); seed < simSeeds; seed++ {
		res, stats := simPeers(t, seed, cfg, n, rounds, partitionSource, timeouts(700*time.Millisecond, 250*time.Millisecond, 700*time.Millisecond))
		if !res[0].SelfEvicted || res[0].Crashed {
			t.Fatalf("seed %d: partitioned peer 0 should have learned of its eviction and stopped: %+v", seed, res[0])
		}
		survivors := []int{1, 2}
		for _, i := range survivors {
			if res[i].Rounds != rounds {
				t.Fatalf("seed %d: survivor %d completed %d rounds, want %d", seed, i, res[i].Rounds, rounds)
			}
			if res[i].EvictionRound[0] == 0 {
				t.Fatalf("seed %d: survivor %d never evicted peer 0", seed, i)
			}
		}
		detection := res[1].EvictionRound[0]
		if detection < 5 || detection > 7 {
			t.Fatalf("seed %d: peer 1 detected the partition in round %d, want within the partition window [5, 7]", seed, detection)
		}
		if stats.PartitionDrops == 0 {
			t.Fatalf("seed %d: partition fault class never fired", seed)
		}
		assertReabsorbed(t, res, survivors, detection, rounds)
	}
}

// TestResilientPeerSymmetricDeadlineRace pins DESIGN.md known
// limitation 1 — the symmetric-deadline race — rather than the remedy
// the test above exercises. An asymmetric partition of the 0 -> 1 link
// genuinely cuts off only peer 1, but the round barrier stalls every
// peer within one round of it; with the stagger inverted (the innocent
// peer 0 holds the short deadline) the first deadline to fire evicts
// whatever its owner happens to be missing, and the deployment splits
// deterministically, under every scheduler seed: 0 wrongly evicts the
// LIVING peer 1, 0's notice to 1 dies on the same severed link that
// caused the stall, and 1 — never told to stop — counter-evicts 0 and 2
// by its own later deadlines and finishes all rounds in a disjoint
// singleton deployment. Both halves believe they are the cluster. This
// divergence is exactly why the operations guidance insists on
// staggering deadlines toward the genuine detector (the test above), and
// why the elastic tree overlay uses child-first deadline eviction.
func TestResilientPeerSymmetricDeadlineRace(t *testing.T) {
	const n, rounds = 3, 16
	cfg := ChaosConfig{
		Delay:      10 * time.Millisecond,
		Partitions: []ChaosPartition{{From: 0, To: 1, FromRound: 5, ToRound: 7}},
	}
	// Inverted stagger: the cut-off peer 1 — the genuine detector — gets
	// the LONG deadline, so the innocent peer 0 fires first; peers 0 and
	// 2 finish their run before peer 1's counter-notices go out.
	for seed := int64(0); seed < simSeeds; seed++ {
		res, stats := simPeers(t, seed, cfg, n, rounds, partitionSource, timeouts(250*time.Millisecond, 3*time.Second, 3*time.Second))
		// The majority half: 0 and 2 evicted the living peer 1 and
		// finished together, convinced the cluster is {0, 2}.
		for _, i := range []int{0, 2} {
			if res[i].SelfEvicted || res[i].Rounds != rounds {
				t.Fatalf("seed %d: peer %d should finish all %d rounds: %+v", seed, i, rounds, res[i])
			}
			if d := res[i].EvictionRound[1]; d < 5 || d > 7 {
				t.Fatalf("seed %d: peer %d evicted peer 1 in round %d, want within the partition window [5, 7]", seed, i, d)
			}
			if got := res[i].Survivors; !reflect.DeepEqual(got, []int{0, 2}) {
				t.Fatalf("seed %d: peer %d survivor view = %v, want [0 2]", seed, i, got)
			}
		}
		// The minority half: the living, innocent peer 1 never received
		// the eviction notice (it died on the severed 0 -> 1 link), so it
		// counter-evicted everyone it was missing and finished alone.
		if res[1].SelfEvicted || res[1].Rounds != rounds {
			t.Fatalf("seed %d: peer 1 should finish all %d rounds solo: %+v", seed, rounds, res[1])
		}
		if got := res[1].Survivors; !reflect.DeepEqual(got, []int{1}) {
			t.Fatalf("seed %d: peer 1 survivor view = %v, want [1]", seed, got)
		}
		if res[1].EvictionRound[0] == 0 || res[1].EvictionRound[2] == 0 {
			t.Fatalf("seed %d: peer 1 should have counter-evicted 0 and 2: %+v", seed, res[1].EvictionRound)
		}
		if stats.PartitionDrops == 0 {
			t.Fatalf("seed %d: partition fault class never fired", seed)
		}
	}
}

// TestElasticSlowPeerEvicted pins DESIGN.md known limitation 4: a
// timeout detector cannot tell slow from dead. Peer 2 is alive and
// healthy, but every message it sends takes 500 ms, more than the 200 ms
// deadline of the peers waiting on it; they evict it in the first
// round, and their notices make it stop.
func TestElasticSlowPeerEvicted(t *testing.T) {
	const n, rounds = 3, 10
	cfg := ChaosConfig{DelayModel: func(from, to int) trace.Process {
		if from == 2 {
			return &trace.Constant{Value: 0.5}
		}
		return nil
	}}
	for seed := int64(0); seed < simSeeds; seed++ {
		res, _ := simPeers(t, seed, cfg, n, rounds, partitionSource, timeouts(200*time.Millisecond, 200*time.Millisecond, time.Second))
		if !res[2].SelfEvicted {
			t.Fatalf("seed %d: slow peer 2 should have been evicted and stopped: %+v", seed, res[2])
		}
		for _, i := range []int{0, 1} {
			if res[i].Rounds != rounds || res[i].EvictionRound[2] != 1 || !reflect.DeepEqual(res[i].Survivors, []int{0, 1}) {
				t.Fatalf("seed %d: peer %d should evict peer 2 in round 1 and finish with [0 1]: %+v", seed, i, res[i])
			}
		}
	}
}

// TestElasticJoinAnnouncementRace pins DESIGN.md known limitation 5:
// the coordinator's announcement of a joiner and the joiner's own first
// frame travel on different links, so unequal delays can reorder them.
// Peer 1's link from the coordinator takes 51 ms and every other link
// 1 ms; joiner 4 is announced in round 3 for round 5 and, granted, sends
// its round-5 share at once. Peer 1 drops that share as traffic from an
// unknown id and cannot finish round 5 without it, so the joiner's
// deadline evicts the live peer 1, and the survivors drop the joiner as
// well: a deployment of four ends with three, under every scheduler seed.
func TestElasticJoinAnnouncementRace(t *testing.T) {
	const n, rounds, joiner = 4, 12, 4
	cfg := ChaosConfig{Delay: time.Millisecond, DelayModel: func(from, to int) trace.Process {
		if from == 0 && to == 1 {
			return &trace.Constant{Value: 0.05}
		}
		return nil
	}}
	ec := ElasticPeerConfig{RoundTimeout: 500 * time.Millisecond}
	schedule := map[int]int{joiner: 3}
	x0 := []float64{0.25, 0.25, 0.25, 0.25}
	for seed := int64(0); seed < simSeeds; seed++ {
		s := newSimNet(t, seed, cfg, n+1)
		m, err := joinerMachine(joiner, 0, rounds, instSource(joiner), ec, schedule, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.add(joiner, m)
		for i := 0; i < n; i++ {
			m, err := incumbentMachine(i, x0, rounds, instSource(i), ec, schedule, nil)
			if err != nil {
				t.Fatal(err)
			}
			s.add(i, m)
		}
		s.run(nil)
		res, errs := s.results()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("seed %d: peer %d: %v", seed, i, err)
			}
		}
		if !res[joiner].SelfEvicted || !reflect.DeepEqual(res[joiner].Evicted, []int{1}) {
			t.Fatalf("seed %d: the joiner should evict the live peer 1 and then be evicted: %+v", seed, res[joiner])
		}
		if !res[1].SelfEvicted || res[1].Rounds >= rounds {
			t.Fatalf("seed %d: live peer 1 should be evicted mid-run: %+v", seed, res[1])
		}
		for _, i := range []int{0, 2, 3} {
			if res[i].Rounds != rounds || !reflect.DeepEqual(res[i].Survivors, []int{0, 2, 3}) {
				t.Fatalf("seed %d: peer %d should finish all %d rounds with [0 2 3]: %+v", seed, i, rounds, res[i])
			}
		}
	}
}

// TestElasticCrashCountsAnnouncementInItsSendRound pins the round a
// chaos crash counts a join announcement in. The coordinator, peer 0,
// announces joiner 4 in round 3 for round 5. A crash of peer 0 at round
// R must let it finish round R-1, so the announcement goes out for both
// R = 4 and R = 5 and every incumbent survivor admits the joiner at
// round 5. Counting the announcement in its apply round crashed the
// coordinator on that send, in round 3. With R = 5 the joiner and the
// survivors then play to the end together. With R = 4 the survivors
// spend one deadline on the crash while the joiner, granted two rounds
// ahead, waits out its own, and under some seeds it evicts them first.
// So with R = 4 the admission is checked, and that each incumbent ends
// without an error, self-evicted if it stopped early: the eviction
// notice can wait in the joiner's backlog and be replayed at the
// admission, and a replayed notice stops a peer as fail-stop as a live
// one does. Under every scheduler seed.
func TestElasticCrashCountsAnnouncementInItsSendRound(t *testing.T) {
	const n, rounds, joiner = 4, 10, 4
	ec := ElasticPeerConfig{RoundTimeout: 200 * time.Millisecond}
	schedule := map[int]int{joiner: 3}
	x0 := []float64{0.25, 0.25, 0.25, 0.25}
	for _, crash := range []int{4, 5} {
		cfg := ChaosConfig{Crashes: []ChaosCrash{{Node: 0, Round: crash}}}
		for seed := int64(0); seed < simSeeds; seed++ {
			s := newSimNet(t, seed, cfg, n+1)
			m, err := joinerMachine(joiner, 1, rounds, instSource(joiner), ec, schedule, nil)
			if err != nil {
				t.Fatal(err)
			}
			s.add(joiner, m)
			for i := 0; i < n; i++ {
				m, err := incumbentMachine(i, x0, rounds, instSource(i), ec, schedule, nil)
				if err != nil {
					t.Fatal(err)
				}
				s.add(i, m)
			}
			s.run(nil)
			res, errs := s.results()
			if !res[0].Crashed || res[0].Rounds != crash-1 {
				t.Fatalf("crash round %d, seed %d: coordinator completed %d rounds (crashed %v), want %d", crash, seed, res[0].Rounds, res[0].Crashed, crash-1)
			}
			for _, i := range []int{1, 2, 3} {
				if got := res[i].AdmissionRound[joiner]; got != 5 {
					t.Fatalf("crash round %d, seed %d: peer %d admitted the joiner at round %d, want 5", crash, seed, i, got)
				}
			}
			if crash == 4 {
				for _, i := range []int{1, 2, 3} {
					if errs[i] != nil || (res[i].Rounds < rounds && !res[i].SelfEvicted) {
						t.Fatalf("crash round 4, seed %d: peer %d ended after %d of %d rounds with error %v and SelfEvicted %v, want no error and self-evicted if early", seed, i, res[i].Rounds, rounds, errs[i], res[i].SelfEvicted)
					}
				}
				continue
			}
			for _, i := range []int{1, 2, 3, joiner} {
				if errs[i] != nil || res[i].Rounds != rounds || !reflect.DeepEqual(res[i].Survivors, []int{1, 2, 3, joiner}) {
					t.Fatalf("crash round %d, seed %d: peer %d should finish all %d rounds with [1 2 3 4] (err %v): %+v", crash, seed, i, rounds, errs[i], res[i])
				}
			}
		}
	}
}

// TestElasticJoinDenied pins the single-use-identity rule: an evicted
// id that asks to rejoin is denied. Peer 2's cost source fails at round
// 5: its run ends with that error, the silent peer is deadline-evicted,
// and a fresh machine on the same node then asks to rejoin under the
// spent id while the survivors are still balancing. A source failure —
// not a transport crash — keeps the victim's inbox deliverable for the
// denial.
func TestElasticJoinDenied(t *testing.T) {
	const n, rounds = 4, 40
	ec := ElasticPeerConfig{RoundTimeout: 150 * time.Millisecond}
	x0 := []float64{0.25, 0.25, 0.25, 0.25}
	for seed := int64(0); seed < simSeeds; seed++ {
		s := newSimNet(t, seed, ChaosConfig{}, n)
		for i := 0; i < n; i++ {
			src := instSource(i)
			if i == 2 {
				src = crashingSource{inner: src, crashAt: 5}
			}
			m, err := incumbentMachine(i, x0, rounds, src, ec, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			s.add(i, m)
		}
		evicted := func() bool {
			for _, i := range []int{0, 1, 3} {
				if s.nodes[i].m.p.Alive(2) {
					return false
				}
			}
			return true
		}
		s.run(evicted)
		if !evicted() {
			t.Fatalf("seed %d: the survivors never evicted peer 2", seed)
		}
		victim := s.nodes[2]
		if !victim.done || victim.err == nil || !strings.Contains(victim.err.Error(), "worker crashed") {
			t.Fatalf("seed %d: peer 2 should have stopped on its source failure, got %v", seed, victim.err)
		}
		rejoin, err := joinerMachine(2, 0, rounds, instSource(2), ec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.add(2, rejoin)
		s.run(nil)
		res, errs := s.results()
		if !errors.Is(errs[2], ErrJoinDenied) {
			t.Fatalf("seed %d: rejoin under spent id: err = %v, want ErrJoinDenied", seed, errs[2])
		}
		for _, i := range []int{0, 1, 3} {
			if errs[i] != nil || res[i].Rounds != rounds {
				t.Fatalf("seed %d: survivor %d completed %d rounds (err %v), want %d", seed, i, res[i].Rounds, errs[i], rounds)
			}
		}
	}
}

// TestElasticJoinsInAnyIDOrder admits joiners against their id order:
// joiner 5 is due at round 3 and joiner 4 at round 10, so every member
// admits 5 at round 5 and then 4 at round 12, after it has counted the
// larger id. Every peer plays each of its rounds, all six end with the
// same survivors, and each roster log's versions rise strictly. Flat
// and tree, under every scheduler seed.
func TestElasticJoinsInAnyIDOrder(t *testing.T) {
	const n, rounds = 4, 16
	joiners := []ElasticJoin{{ID: 4, Contact: 1, Round: 10}, {ID: 5, Contact: 2, Round: 3}}
	schedule := map[int]int{4: 10, 5: 3}
	x0 := []float64{0.25, 0.25, 0.25, 0.25}
	want := map[int]struct {
		first    int
		admitted []int
	}{0: {1, []int{5, 4}}, 1: {1, []int{5, 4}}, 2: {1, []int{5, 4}}, 3: {1, []int{5, 4}}, 4: {12, nil}, 5: {5, []int{4}}}
	for _, topo := range []Topology{TopologyFlat, TopologyTree} {
		ec := ElasticPeerConfig{RoundTimeout: 200 * time.Millisecond, Topology: topo, Fanout: 2}
		for seed := int64(0); seed < simSeeds; seed++ {
			s := newSimNet(t, seed, ChaosConfig{}, n+len(joiners))
			for _, j := range joiners {
				m, err := joinerMachine(j.ID, j.Contact, rounds, instSource(j.ID), ec, schedule, nil)
				if err != nil {
					t.Fatal(err)
				}
				s.add(j.ID, m)
			}
			for i := 0; i < n; i++ {
				m, err := incumbentMachine(i, x0, rounds, instSource(i), ec, schedule, nil)
				if err != nil {
					t.Fatal(err)
				}
				s.add(i, m)
			}
			s.run(nil)
			res, errs := s.results()
			for i, r := range res {
				w := want[i]
				if errs[i] != nil || r.FirstRound != w.first || r.Rounds != rounds || len(r.Played) != rounds-w.first+1 ||
					!reflect.DeepEqual(r.Admitted, w.admitted) || !reflect.DeepEqual(r.Survivors, []int{0, 1, 2, 3, 4, 5}) {
					t.Fatalf("%v, seed %d: peer %d (err %v) played rounds %d..%d (%d), admitted %v, survivors %v; want rounds %d..%d, admitted %v, survivors [0 1 2 3 4 5]",
						topo, seed, i, errs[i], r.FirstRound, r.Rounds, len(r.Played), r.Admitted, r.Survivors, w.first, rounds, w.admitted)
				}
				for k := 1; k < len(r.RosterLog); k++ {
					if r.RosterLog[k].Version <= r.RosterLog[k-1].Version {
						t.Fatalf("%v, seed %d: peer %d roster log %+v: versions not strictly increasing", topo, seed, i, r.RosterLog)
					}
				}
			}
		}
	}
}

// TestElasticFailedSendOrder pins where a send that fails to a live
// peer (a closed node) lands in the emission order. Peer 0 holds every
// round-1 contribution of the other three peers before it observes, so
// its observation completes round 1 at once. In flat mode its share to
// peer 2 fails: the rest of that output's sends go first, then the
// eviction notices, then the round's decision. In tree mode (fanout 2,
// peer 0 the root over children 1 and 2) its down-phase hop to peer 1
// fails: the eviction notices go before the hop to peer 2.
func TestElasticFailedSendOrder(t *testing.T) {
	x0 := []float64{0.25, 0.25, 0.25, 0.25}
	for _, c := range []struct {
		name   string
		topo   Topology
		early  []Envelope // round-1 traffic held before peer 0 observes
		closed int
		want   []string
	}{
		{
			name: "flat",
			early: []Envelope{ // peer 1 is the straggler
				wire.NewEnvelope(1, 0, core.PeerShare{Round: 1, From: 1, Cost: 5, LocalAlpha: 0.1}),
				wire.NewEnvelope(2, 0, core.PeerShare{Round: 1, From: 2, Cost: 1, LocalAlpha: 0.1}),
				wire.NewEnvelope(3, 0, core.PeerShare{Round: 1, From: 3, Cost: 1, LocalAlpha: 0.1}),
			},
			closed: 2,
			want: []string{
				"share>1", "share>2", "share>3", // round 1's share output; 2 fails
				"evict>1", "evict>2", "evict>3", // the eviction it triggers
				"peer-decision>1",    // the next output of round 1
				"share>1", "share>3", // round 2, without peer 2
			},
		},
		{
			name: "tree",
			topo: TopologyTree,
			early: []Envelope{ // peer 2 is the straggler; peer 1's subtree holds peer 3
				wire.NewEnvelope(1, 0, core.PeerAggregate{Round: 1, From: 1, Count: 2, MaxCost: 1, Straggler: 1, MinAlpha: 0.1}),
				wire.NewEnvelope(2, 0, core.PeerAggregate{Round: 1, From: 2, Count: 1, MaxCost: 5, Straggler: 2, MinAlpha: 0.1}),
			},
			closed: 1,
			want: []string{
				"aggregate>1",                   // the consensus hop to child 1 fails
				"evict>1", "evict>2", "evict>3", // its eviction, before the next hop
				"aggregate>2",     // the rest of the down phase
				"peer-decision>2", // then round 1's decision
			},
		},
	} {
		m, err := incumbentMachine(0, x0, 2, instSource(0), ElasticPeerConfig{Topology: c.topo, Fanout: 2}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, env := range c.early {
			m.handle(env)
		}
		m.start()
		var got []string
		send := func(to int, env Envelope) error {
			got = append(got, fmt.Sprintf("%s>%d", env.Kind(), to))
			if to == c.closed {
				return fmt.Errorf("%w: %d", ErrUnknownNode, to)
			}
			return nil
		}
		if err := flush(context.Background(), m, send, time.Now); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s emission order:\n got %v\nwant %v", c.name, got, c.want)
		}
		if !reflect.DeepEqual(m.res.Evicted, []int{c.closed}) {
			t.Errorf("%s: evicted %v, want [%d]", c.name, m.res.Evicted, c.closed)
		}
	}
}
