package cluster

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/costfn"
	"dolbie/internal/simplex"
	"dolbie/internal/wire"
)

// instSource builds a deterministic CostSource for worker id: per-round
// affine costs whose slopes cycle with round and id.
func instSource(id int) CostSource {
	return FuncSource(func(round int, x float64) (float64, costfn.Func, error) {
		f := instFunc(id, round)
		return f.Eval(x), f, nil
	})
}

func instFunc(id, round int) costfn.Affine {
	slope := 1 + float64((id*7+round*3)%11)
	intercept := 0.1 * float64((id+round)%5)
	return costfn.Affine{Slope: slope, Intercept: intercept}
}

// centralizedTrajectory replays the same instance through the
// centralized Balancer for comparison.
func centralizedTrajectory(t *testing.T, n, rounds int, opts ...core.Option) [][]float64 {
	t.Helper()
	b, err := core.NewBalancer(simplex.Uniform(n), opts...)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]float64
	for r := 1; r <= rounds; r++ {
		x := b.Assignment()
		obs := core.Observation{Costs: make([]float64, n), Funcs: make([]costfn.Func, n)}
		for i := 0; i < n; i++ {
			f := instFunc(i, r)
			obs.Costs[i] = f.Eval(x[i])
			obs.Funcs[i] = f
		}
		rep, err := b.Step(obs)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rep.Next)
	}
	return out
}

func memTransports(net *MemNet, n int) []Transport {
	ts := make([]Transport, n)
	for i := range ts {
		ts[i] = net.Node(i)
	}
	return ts
}

func TestMasterWorkerDeploymentOnMemNet(t *testing.T) {
	const n, rounds = 6, 15
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	net := NewMemNet()
	transports := memTransports(net, n+1)
	sources := make([]CostSource, n)
	for i := range sources {
		sources[i] = instSource(i)
	}
	x0 := simplex.Uniform(n)
	masterRes, workerRes, err := MasterWorkerDeployment(ctx, transports, x0, rounds, sources)
	if err != nil {
		t.Fatal(err)
	}
	if masterRes.Rounds != rounds {
		t.Errorf("master completed %d rounds, want %d", masterRes.Rounds, rounds)
	}

	// The distributed trajectory must match the centralized balancer.
	// Played[t] is x_t; compare x_{t+1} via the next round's play.
	want := centralizedTrajectory(t, n, rounds)
	played := make([][]float64, n)
	for i, wr := range workerRes {
		played[i] = wr.Played
	}
	traj, err := Trajectory(played)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < rounds; r++ {
		for i := 0; i < n; i++ {
			if math.Abs(traj[r][i]-want[r-1][i]) > 1e-9 {
				t.Fatalf("round %d worker %d: played %v, want %v", r, i, traj[r][i], want[r-1][i])
			}
		}
	}

	// Communication complexity (Section IV-C): per round the master sends
	// N coordinates + 1 assign and receives N costs + N-1 decisions.
	wantSent := rounds * (n + 1)
	wantRecv := rounds * (2*n - 1)
	if masterRes.Traffic.MsgsSent != wantSent {
		t.Errorf("master sent %d msgs, want %d", masterRes.Traffic.MsgsSent, wantSent)
	}
	if masterRes.Traffic.MsgsReceived != wantRecv {
		t.Errorf("master received %d msgs, want %d", masterRes.Traffic.MsgsReceived, wantRecv)
	}
}

func TestFullyDistributedDeploymentOnMemNet(t *testing.T) {
	const n, rounds = 5, 12
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	net := NewMemNet()
	transports := memTransports(net, n)
	sources := make([]CostSource, n)
	for i := range sources {
		sources[i] = instSource(i)
	}
	x0 := simplex.Uniform(n)
	res, err := FullyDistributedDeployment(ctx, transports, x0, rounds, sources)
	if err != nil {
		t.Fatal(err)
	}

	want := centralizedTrajectory(t, n, rounds)
	played := make([][]float64, n)
	var totalMsgs int
	for i, pr := range res {
		played[i] = pr.Played
		totalMsgs += pr.Traffic.MsgsSent
	}
	traj, err := Trajectory(played)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < rounds; r++ {
		for i := 0; i < n; i++ {
			if math.Abs(traj[r][i]-want[r-1][i]) > 1e-9 {
				t.Fatalf("round %d peer %d: played %v, want %v", r, i, traj[r][i], want[r-1][i])
			}
		}
	}

	// Communication complexity: N(N-1) shares + (N-1) decisions per round.
	wantTotal := rounds * (n*(n-1) + (n - 1))
	if totalMsgs != wantTotal {
		t.Errorf("total msgs sent = %d, want %d (O(N^2))", totalMsgs, wantTotal)
	}
}

func TestMasterWorkerDeploymentOnTCP(t *testing.T) {
	const n, rounds = 4, 8
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	nodes := make([]*TCPNode, n+1)
	registry := make(map[int]string, n+1)
	for i := 0; i <= n; i++ {
		node, err := ListenTCP(i, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close() //nolint:errcheck // test teardown
		nodes[i] = node
		registry[i] = node.Addr()
	}
	transports := make([]Transport, n+1)
	for i, node := range nodes {
		node.SetRegistry(registry)
		transports[i] = node
	}
	sources := make([]CostSource, n)
	for i := range sources {
		sources[i] = instSource(i)
	}
	x0 := simplex.Uniform(n)
	masterRes, workerRes, err := MasterWorkerDeployment(ctx, transports, x0, rounds, sources)
	if err != nil {
		t.Fatal(err)
	}
	if masterRes.Rounds != rounds {
		t.Errorf("master completed %d rounds, want %d", masterRes.Rounds, rounds)
	}
	want := centralizedTrajectory(t, n, rounds)
	for i, wr := range workerRes {
		if math.Abs(wr.Played[rounds-1]-want[rounds-2][i]) > 1e-9 {
			t.Errorf("worker %d final play %v, want %v", i, wr.Played[rounds-1], want[rounds-2][i])
		}
	}
}

func TestFullyDistributedDeploymentOnTCP(t *testing.T) {
	const n, rounds = 3, 6
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	nodes := make([]*TCPNode, n)
	registry := make(map[int]string, n)
	for i := 0; i < n; i++ {
		node, err := ListenTCP(i, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close() //nolint:errcheck // test teardown
		nodes[i] = node
		registry[i] = node.Addr()
	}
	transports := make([]Transport, n)
	for i, node := range nodes {
		node.SetRegistry(registry)
		transports[i] = node
	}
	sources := make([]CostSource, n)
	for i := range sources {
		sources[i] = instSource(i)
	}
	res, err := FullyDistributedDeployment(ctx, transports, simplex.Uniform(n), rounds, sources)
	if err != nil {
		t.Fatal(err)
	}
	want := centralizedTrajectory(t, n, rounds)
	for i, pr := range res {
		if math.Abs(pr.Played[rounds-1]-want[rounds-2][i]) > 1e-9 {
			t.Errorf("peer %d final play %v, want %v", i, pr.Played[rounds-1], want[rounds-2][i])
		}
	}
}

func TestDeploymentFailsCleanlyOnLossyNetwork(t *testing.T) {
	// Dropped messages stall the barrier; the deployment must unwind via
	// the context deadline instead of hanging.
	const n, rounds = 4, 50
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()

	chaos := NewChaos(ChaosConfig{Seed: 7, DropProb: 0.2})
	transports := chaos.WrapAll(memTransports(NewMemNet(), n+1))
	defer closeAll(t, transports)
	sources := make([]CostSource, n)
	for i := range sources {
		sources[i] = instSource(i)
	}
	start := time.Now()
	_, _, err := MasterWorkerDeployment(ctx, transports, simplex.Uniform(n), rounds, sources)
	if err == nil {
		t.Fatal("lossy deployment should fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error should wrap DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deployment took %v to unwind", elapsed)
	}
}

// TestDeploymentFailsCleanlyOnPartition wedges each algorithm's
// deployment with a one-way cut and no round deadline: it must unwind
// on the caller's deadline, with an error that wraps it.
func TestDeploymentFailsCleanlyOnPartition(t *testing.T) {
	const n, rounds = 3, 20
	sources := make([]CostSource, n)
	for i := range sources {
		sources[i] = instSource(i)
	}
	for _, tc := range []struct {
		name  string
		cut   ChaosPartition
		nodes int
		run   func(ctx context.Context, transports []Transport) error
	}{
		// Sever worker 2 -> master: its cost reports vanish.
		{"master-worker", ChaosPartition{From: 2, To: MasterID(n), FromRound: 1, ToRound: rounds}, n + 1, func(ctx context.Context, transports []Transport) error {
			_, _, err := MasterWorkerDeployment(ctx, transports, simplex.Uniform(n), rounds, sources)
			return err
		}},
		// Sever peer 2 -> peer 0: peer 0 never completes round 1.
		{"fully-distributed", ChaosPartition{From: 2, To: 0, FromRound: 1, ToRound: rounds}, n, func(ctx context.Context, transports []Transport) error {
			_, err := FullyDistributedDeployment(ctx, transports, simplex.Uniform(n), rounds, sources)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			defer cancel()
			chaos := NewChaos(ChaosConfig{Partitions: []ChaosPartition{tc.cut}})
			transports := chaos.WrapAll(memTransports(NewMemNet(), tc.nodes))
			defer closeAll(t, transports)
			if err := tc.run(ctx, transports); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("partitioned deployment should deadline, got %v", err)
			}
		})
	}
}

func TestDeploymentValidation(t *testing.T) {
	ctx := context.Background()
	net := NewMemNet()
	if _, _, err := MasterWorkerDeployment(ctx, memTransports(net, 2), simplex.Uniform(3), 5, nil); err == nil {
		t.Error("transport count mismatch should error")
	}
	if _, _, err := MasterWorkerDeployment(ctx, memTransports(net, 4), simplex.Uniform(3), 5, []CostSource{nil}); err == nil {
		t.Error("source count mismatch should error")
	}
	if _, err := FullyDistributedDeployment(ctx, memTransports(net, 2), simplex.Uniform(3), 5, nil); err == nil {
		t.Error("transport count mismatch should error")
	}
	if _, err := RunMaster(ctx, net.Node(0), simplex.Uniform(3), 0, MasterConfig{}); err == nil {
		t.Error("zero rounds should error")
	}
	if _, err := RunWorker(ctx, net.Node(0), 0, 3, 0.3, 5, nil); err == nil {
		t.Error("nil source should error")
	}
	if _, err := RunElasticPeer(ctx, net.Node(0), 0, simplex.Uniform(3), 0, instSource(0), ElasticPeerConfig{}); err == nil {
		t.Error("zero rounds should error")
	}
}

func TestTrajectory(t *testing.T) {
	if _, err := Trajectory(nil); err == nil {
		t.Error("empty should error")
	}
	if _, err := Trajectory([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged should error")
	}
	traj, err := Trajectory([][]float64{{0.3, 0.4}, {0.7, 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	if traj[0][0] != 0.3 || traj[0][1] != 0.7 || traj[1][0] != 0.4 || traj[1][1] != 0.6 {
		t.Errorf("trajectory = %v", traj)
	}
}

func TestMemNetUnknownNode(t *testing.T) {
	net := NewMemNet()
	tr := net.Node(0)
	// Inside the slot table, negative, and past its end.
	for _, to := range []int{1, 9, -1, 1 << 20} {
		env := wire.NewEnvelope(0, to, core.CostReport{Round: 1, From: 0, Cost: 1})
		if _, err := tr.Send(context.Background(), to, env); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("send to unregistered node %d = %v, want ErrUnknownNode", to, err)
		}
	}
}

func TestMemNetClose(t *testing.T) {
	net := NewMemNet()
	a, b := net.Node(0), net.Node(1)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	env := wire.NewEnvelope(0, 1, core.CostReport{})
	if _, err := a.Send(context.Background(), 1, env); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("send to closed node = %v, want ErrUnknownNode", err)
	}
	if _, _, err := b.Recv(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("recv on closed node = %v, want ErrClosed", err)
	}
	back := wire.NewEnvelope(1, 0, core.CostReport{From: 1})
	if _, err := net.Node(1).Send(context.Background(), 0, back); !errors.Is(err, ErrClosed) {
		t.Errorf("send from closed node = %v, want ErrClosed", err)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	want := core.Coordinate{Round: 3, GlobalCost: 1.5, Alpha: 0.01, Straggler: 2}
	env := wire.NewEnvelope(5, 1, want)
	for _, codec := range []wire.Codec{wire.JSON, wire.Binary} {
		n, err := wire.FrameSize(codec, env)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Errorf("%s wire bytes should be positive", codec.Name())
		}
	}
	if got, ok := env.Msg.(core.Coordinate); !ok || got != want {
		t.Errorf("round trip = %+v, want %+v", env.Msg, want)
	}
	if k := env.Kind(); k != wire.KindCoordinate {
		t.Errorf("kind = %v, want coordinate", k)
	}
}

func TestTCPNodeCloseIdempotentAndUnknownPeer(t *testing.T) {
	node, err := ListenTCP(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	env := wire.NewEnvelope(0, 1, core.CostReport{})
	if _, err := node.Send(context.Background(), 1, env); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("send without registry = %v, want ErrUnknownNode", err)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Errorf("second close should be a no-op, got %v", err)
	}
	if _, err := node.Send(context.Background(), 1, env); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
	if _, _, err := node.Recv(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("recv after close = %v, want ErrClosed", err)
	}
}
