package cluster

import (
	"bytes"
	"container/heap"
	"reflect"
	"testing"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/simplex"
	"dolbie/internal/wire"
)

// fuzzMachine is peer 0 — coordinator and tree root — of a 4-peer
// deployment, started in round 1.
func fuzzMachine(t *testing.T, topo Topology) *elasticMachine {
	t.Helper()
	m, err := incumbentMachine(0, []float64{0.25, 0.25, 0.25, 0.25}, 1000, instSource(0),
		ElasticPeerConfig{RoundTimeout: time.Second, Topology: topo, Fanout: 2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.start()
	drainSends(m)
	return m
}

// drainSends takes every queued send as delivered.
func drainSends(m *elasticMachine) {
	for {
		if _, ok := m.next(); !ok {
			return
		}
	}
}

// checkBuffers fails the test when any buffer of m exceeds the bound
// DESIGN §11 states for it.
func checkBuffers(t *testing.T, m *elasticMachine) {
	t.Helper()
	if m.p == nil {
		return
	}
	// Every id the peer has counted is live or was evicted by it.
	counted, lead := len(m.survivors)+len(m.res.Evicted), int(m.epochLead())
	if got, max := len(m.pendingAggs), 4*counted*(lead+1); got > max {
		t.Fatalf("pendingAggs holds %d aggregates, bound %d", got, max)
	}
	if got := len(m.pendingAdmissions); got > maxPendingAdmissions {
		t.Fatalf("pendingAdmissions holds %d updates, bound %d", got, maxPendingAdmissions)
	}
	if got, max := len(m.joinQueue), maxJoinQueue+len(m.schedule); got > max {
		t.Fatalf("joinQueue holds %d requests, bound %d", got, max)
	}
	if got := len(m.backlog); got > maxBacklog {
		t.Fatalf("backlog holds %d messages, bound %d", got, maxBacklog)
	}
}

// feedFrames decodes binary frames from data and feeds each to m, a
// cost report standing for an expired deadline. It stops at the
// first undecodable byte or when m finishes.
func feedFrames(t *testing.T, m *elasticMachine, data []byte) {
	r := bytes.NewReader(data)
	for !m.finished {
		env, _, err := wire.ReadFrame(r, wire.Binary)
		if err != nil {
			return
		}
		if _, tick := env.Msg.(core.CostReport); tick {
			m.tick()
		} else {
			m.handle(env)
		}
		drainSends(m)
		checkBuffers(t, m)
	}
}

// fuzzFrames encodes envelopes as one binary frame stream.
func fuzzFrames(t testing.TB, envs ...Envelope) []byte {
	var buf bytes.Buffer
	for _, env := range envs {
		if _, err := wire.WriteFrame(&buf, wire.Binary, env); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// rejectedFrames returns frames from peer 1 that peer 0's core state
// machine refuses in round 1 of an n-peer deployment: a share two rounds
// ahead, two copies of peer 1's own round-1 share (the second a
// duplicate) and a decision for a later round.
func rejectedFrames(t testing.TB, n, rounds int) []Envelope {
	twin, err := incumbentMachine(1, simplex.Uniform(n), rounds, instSource(1), ElasticPeerConfig{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	twin.start()
	first, _ := twin.next() // its round-1 share, to peer 0
	return []Envelope{
		wire.NewEnvelope(1, 0, core.PeerShare{Round: 3, From: 1, Cost: 9, LocalAlpha: 0.5}),
		first.env,
		first.env,
		wire.NewEnvelope(1, 0, core.PeerDecision{Round: 3, From: 1, To: 0, Next: 0.5}),
	}
}

// TestElasticDropsRejectedFrames delivers rejectedFrames to peer 0 of a
// flat and a tree deployment before any other traffic: the core refuses
// each on arrival, the peer drops it, and every peer finishes with the
// Played and Costs of an undisturbed run.
func TestElasticDropsRejectedFrames(t *testing.T) {
	const n, rounds = 4, 6
	for _, topo := range []Topology{TopologyFlat, TopologyTree} {
		t.Run(topo.String(), func(t *testing.T) {
			ec := func(int) ElasticPeerConfig { return ElasticPeerConfig{Topology: topo, Fanout: 2} }
			want, _ := simPeers(t, 1, ChaosConfig{}, n, rounds, instSource, ec)
			s := newSimNet(t, 1, ChaosConfig{}, n)
			for _, env := range rejectedFrames(t, n, rounds) {
				heap.Push(&s.nodes[0].inbox, simMsg{at: s.now, seq: s.seq, env: env})
				s.seq++
			}
			for i := 0; i < n; i++ {
				m, err := incumbentMachine(i, simplex.Uniform(n), rounds, instSource(i), ec(i), nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				s.add(i, m)
			}
			s.run(nil)
			got, errs := s.results()
			for i := range got {
				if errs[i] != nil {
					t.Fatalf("peer %d: %v", i, errs[i])
				}
				if got[i].Rounds != rounds || !reflect.DeepEqual(got[i].Played, want[i].Played) || !reflect.DeepEqual(got[i].Costs, want[i].Costs) {
					t.Fatalf("peer %d diverged from the undisturbed run:\n got %+v\nwant %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// FuzzElasticFrames feeds arbitrary decoded frames of every Algorithm 2
// kind, from senders in and out of the roster, into a flat and a tree
// machine: neither may panic, and every buffer must stay within its
// bound. The seeds are a healthy first round, a join, an eviction,
// frames far outside the protocol's windows, and frames the core
// refuses on arrival.
func FuzzElasticFrames(f *testing.F) {
	agg := func(from, round int, epoch uint64, down bool) Envelope {
		return wire.NewEnvelope(from, 0, core.PeerAggregate{Round: round, From: from, Epoch: epoch, Down: down, Count: 1, Straggler: from, MaxCost: 1, MinAlpha: 0.1})
	}
	share := func(from, round int) Envelope {
		return wire.NewEnvelope(from, 0, core.PeerShare{Round: round, From: from, Cost: float64(from), LocalAlpha: 0.1})
	}
	roster := func(from, round, join int, version uint64) Envelope {
		return wire.NewEnvelope(from, 0, core.RosterUpdate{Version: version, Round: round, From: from, Join: join, Weight: 0.2, Alpha: 0.1})
	}
	tick := wire.NewEnvelope(1, 0, core.CostReport{Round: 1, From: 1})
	f.Add(fuzzFrames(f, share(1, 1), share(2, 1), share(3, 1), share(1, 2),
		wire.NewEnvelope(1, 0, core.PeerDecision{Round: 1, From: 1, To: 0, Next: 0.3})))
	f.Add(fuzzFrames(f, agg(1, 1, 0, false), agg(2, 1, 0, false), agg(1, 2, 0, false), agg(2, 1, 1, false), tick, tick))
	f.Add(fuzzFrames(f, wire.NewEnvelope(4, 0, core.JoinRequest{From: 4}), roster(1, 3, 5, 1), share(4, 3), agg(5, 3, 1, false), tick))
	f.Add(fuzzFrames(f, wire.NewEnvelope(1, 0, core.PeerEvict{Round: 1, From: 1, Evicted: 3}), agg(2, 1, 1, false), share(9, 1), tick))
	f.Add(fuzzFrames(f, agg(1, 1<<30, 0, false), agg(1, 1, 1<<40, true), roster(1, 1<<30, 7, 1), roster(1, 2, 1<<30, 1),
		wire.NewEnvelope(1<<30, 0, core.JoinRequest{From: 1 << 30}), roster(1, 2, 6, 1<<50)))
	f.Add(fuzzFrames(f, rejectedFrames(f, 4, 6)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		feedFrames(t, fuzzMachine(t, TopologyFlat), data)
		feedFrames(t, fuzzMachine(t, TopologyTree), data)
	})
}

// TestElasticFloodsStayBounded replays three floods of hostile frames
// at peer 0 of a 4-peer tree deployment — aggregates for rounds past
// 10^6, far-future roster updates, and join requests under distinct
// ids — and checks that nothing is buffered outside the protocol's
// windows, no update is relayed, and each buffer stays within its bound.
func TestElasticFloodsStayBounded(t *testing.T) {
	m := fuzzMachine(t, TopologyTree)
	for i := 0; i < 20000; i++ {
		m.handle(wire.NewEnvelope(1, 0, core.PeerAggregate{Round: 1000000 + i, From: 1, Count: 1, Straggler: 1}))
	}
	for i := 0; i < 2000; i++ {
		m.handle(wire.NewEnvelope(1, 0, core.RosterUpdate{Version: 1, Round: 1000 + i, From: 1, Join: 4 + i, Weight: 0.1, Alpha: 0.1}))
	}
	sends := 0
	for ; ; sends++ {
		if _, ok := m.next(); !ok {
			break
		}
	}
	for i := 0; i < 2000; i++ {
		m.handle(wire.NewEnvelope(4+i, 0, core.JoinRequest{From: 4 + i}))
	}
	drainSends(m)
	checkBuffers(t, m)
	if len(m.pendingAggs) != 0 || len(m.pendingAdmissions) != 0 || sends != 0 {
		t.Fatalf("floods left %d aggregates and %d admissions buffered and %d sends", len(m.pendingAggs), len(m.pendingAdmissions), sends)
	}
	if len(m.joinQueue) != maxJoinQueue {
		t.Fatalf("join queue holds %d requests, want the cap %d", len(m.joinQueue), maxJoinQueue)
	}
}
