package experiments

import (
	"context"
	"fmt"
	"time"

	"dolbie/internal/cluster"
	"dolbie/internal/core"
	"dolbie/internal/costfn"
	"dolbie/internal/simplex"
	"dolbie/internal/wire"
)

// CommsTable reproduces the communication complexity analysis of Section
// IV-C by running real in-memory deployments of both architectures and
// counting protocol messages and bytes: O(N) per round for master-worker,
// O(N^2) per round for fully-distributed. Byte columns are reported for
// both wire codecs, showing how far each framing sits above the
// algorithm's scalar-only information content.
func CommsTable(cfg Config) (Table, error) {
	if err := cfg.validate(); err != nil {
		return Table{}, err
	}
	tab := Table{
		ID:      "comms",
		Title:   "Measured protocol traffic per round (real message-passing deployments)",
		Columns: []string{"N", "MW msgs/round", "MW B/round (json)", "MW B/round (binary)", "FD msgs/round", "FD B/round (json)", "FD B/round (binary)"},
	}
	const rounds = 10
	sizes := []int{5, 10, 20, 30}
	for _, n := range sizes {
		mwMsgs, mwJSON, err := memTraffic(n, rounds, wire.JSON, true, cfg)
		if err != nil {
			return Table{}, err
		}
		_, mwBin, err := memTraffic(n, rounds, wire.Binary, true, cfg)
		if err != nil {
			return Table{}, err
		}
		fdMsgs, fdJSON, err := memTraffic(n, rounds, wire.JSON, false, cfg)
		if err != nil {
			return Table{}, err
		}
		_, fdBin, err := memTraffic(n, rounds, wire.Binary, false, cfg)
		if err != nil {
			return Table{}, err
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", mwMsgs),
			fmt.Sprintf("%.0f", mwJSON),
			fmt.Sprintf("%.0f", mwBin),
			fmt.Sprintf("%.0f", fdMsgs),
			fmt.Sprintf("%.0f", fdJSON),
			fmt.Sprintf("%.0f", fdBin),
		})
	}
	tab.Notes = append(tab.Notes,
		"master-worker scales O(N) (3N per round: N costs + N coordinates + N-1 decisions + 1 assign)",
		"fully-distributed scales O(N^2) (N(N-1) shares + N-1 decisions per round), trading traffic for decentralization",
		"the binary codec carries the same message counts in a fraction of the bytes (fixed-width scalars vs JSON text)")
	return tab, nil
}

func deterministicSources(n int) []cluster.CostSource {
	sources := make([]cluster.CostSource, n)
	for i := range sources {
		i := i
		sources[i] = cluster.FuncSource(func(round int, x float64) (float64, costfn.Func, error) {
			f := costfn.Affine{
				Slope:     1 + float64((i*13+round*5)%17),
				Intercept: 0.05 * float64((i+round)%7),
			}
			return f.Eval(x), f, nil
		})
	}
	return sources
}

// memTraffic measures one protocol of n workers over a MemNet on codec.
func memTraffic(n, rounds int, codec wire.Codec, masterWorker bool, cfg Config) (msgsPerRound, bytesPerRound float64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	net := cluster.NewMemNet(cluster.WithCodec(codec))
	count := n
	if masterWorker {
		count++ // the master
	}
	transports := make([]cluster.Transport, count)
	for i := range transports {
		transports[i] = net.Node(i)
	}
	return Traffic(ctx, transports, masterWorker, rounds, clusterAlphaOpt(cfg)...)
}

// Traffic runs one deployment over transports for rounds rounds on the
// deterministic affine sources and returns the protocol messages and
// bytes its nodes sent per round: Algorithm 1 with the last transport
// as the master when masterWorker is set, Algorithm 2 otherwise. The
// counts are a pure function of the transports' codec and opts (JSON
// frames spell out the step sizes opts set).
func Traffic(ctx context.Context, transports []cluster.Transport, masterWorker bool, rounds int, opts ...core.Option) (msgsPerRound, bytesPerRound float64, err error) {
	var sent []cluster.TrafficStats
	if masterWorker {
		n := len(transports) - 1
		master, workers, err := cluster.MasterWorkerDeployment(ctx, transports, simplex.Uniform(n), rounds, deterministicSources(n), opts...)
		if err != nil {
			return 0, 0, fmt.Errorf("experiments: master-worker N=%d: %w", n, err)
		}
		sent = append(sent, master.Traffic)
		for _, w := range workers {
			sent = append(sent, w.Traffic)
		}
	} else {
		n := len(transports)
		peers, err := cluster.FullyDistributedDeployment(ctx, transports, simplex.Uniform(n), rounds, deterministicSources(n), opts...)
		if err != nil {
			return 0, 0, fmt.Errorf("experiments: fully-distributed N=%d: %w", n, err)
		}
		for _, p := range peers {
			sent = append(sent, p.Traffic)
		}
	}
	var msgs, bytes int
	for _, s := range sent {
		msgs += s.MsgsSent
		bytes += s.BytesSent
	}
	return float64(msgs) / float64(rounds), float64(bytes) / float64(rounds), nil
}
