package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"dolbie/internal/cluster"
	"dolbie/internal/core"
	"dolbie/internal/costfn"
	"dolbie/internal/simplex"
	"dolbie/internal/wire"
)

// This file implements the -wire benchmark mode: it counts the protocol
// messages and bytes per round of both DOLBIE protocols on a real
// 8-worker TCP deployment under every wire codec, and writes them to a
// JSON file so the traffic of the codec layer is tracked in-repo. Every
// field is a pure function of the seeded sources, so the report
// reproduces byte for byte. The codec layer's timings and allocations
// are Go benchmarks instead: BenchmarkTCPSendRecv in internal/cluster,
// and TestInstrumentedMessageAllocatesNothing for the metering path.

const (
	wireWorkers = 8
	wireRounds  = 30
)

// wireProtocolStats is one protocol's traffic under one codec.
type wireProtocolStats struct {
	MsgsPerRound  float64 `json:"msgs_per_round"`
	BytesPerRound float64 `json:"bytes_per_round"`
}

// wireReport is the BENCH_wire.json document.
type wireReport struct {
	Workers          int                          `json:"workers"`
	Rounds           int                          `json:"rounds"`
	MasterWorker     map[string]wireProtocolStats `json:"master_worker_tcp"`
	FullyDistributed map[string]wireProtocolStats `json:"fully_distributed_tcp"`
	MWBytesRatio     float64                      `json:"mw_bytes_json_over_binary"`
	FDBytesRatio     float64                      `json:"fd_bytes_json_over_binary"`
}

// runWireBench measures every registered codec and writes the report to
// outPath.
func runWireBench(outPath string, out io.Writer) error {
	rep := wireReport{
		Workers:          wireWorkers,
		Rounds:           wireRounds,
		MasterWorker:     make(map[string]wireProtocolStats),
		FullyDistributed: make(map[string]wireProtocolStats),
	}
	for _, name := range wire.Names() {
		codec, err := wire.ByName(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wire bench: %s codec (TCP, %d workers, %d rounds)\n", name, wireWorkers, wireRounds)
		mw, err := wireMasterWorkerTCP(codec)
		if err != nil {
			return err
		}
		rep.MasterWorker[name] = mw
		fd, err := wireFullyDistributedTCP(codec)
		if err != nil {
			return err
		}
		rep.FullyDistributed[name] = fd
		fmt.Fprintf(out, "  mw %.0f B/round, fd %.0f B/round\n", mw.BytesPerRound, fd.BytesPerRound)
	}
	if j, ok := rep.MasterWorker["json"]; ok {
		if b, ok := rep.MasterWorker["binary"]; ok && b.BytesPerRound > 0 {
			rep.MWBytesRatio = j.BytesPerRound / b.BytesPerRound
		}
	}
	if j, ok := rep.FullyDistributed["json"]; ok {
		if b, ok := rep.FullyDistributed["binary"]; ok && b.BytesPerRound > 0 {
			rep.FDBytesRatio = j.BytesPerRound / b.BytesPerRound
		}
	}
	if rep.MWBytesRatio > 0 {
		fmt.Fprintf(out, "bytes/round json/binary: mw %.2fx, fd %.2fx\n", rep.MWBytesRatio, rep.FDBytesRatio)
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", outPath)
	return nil
}

// wireSources mirrors the deterministic affine sources of the comms
// experiment so byte counts are reproducible run to run.
func wireSources(n int) []cluster.CostSource {
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

// wireTCPNodes builds count connected localhost TCP nodes on codec.
func wireTCPNodes(count int, codec wire.Codec) ([]*cluster.TCPNode, func(), error) {
	nodes := make([]*cluster.TCPNode, count)
	registry := make(map[int]string, count)
	for i := 0; i < count; i++ {
		node, err := cluster.ListenTCP(i, "127.0.0.1:0", cluster.WithTCPCodec(codec))
		if err != nil {
			for _, n := range nodes[:i] {
				n.Close() //nolint:errcheck // best-effort unwind
			}
			return nil, nil, err
		}
		nodes[i] = node
		registry[i] = node.Addr()
	}
	for _, node := range nodes {
		node.SetRegistry(registry)
	}
	cleanup := func() {
		for _, node := range nodes {
			node.Close() //nolint:errcheck // best-effort teardown
		}
	}
	return nodes, cleanup, nil
}

func wireMasterWorkerTCP(codec wire.Codec) (wireProtocolStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	nodes, cleanup, err := wireTCPNodes(wireWorkers+1, codec)
	if err != nil {
		return wireProtocolStats{}, err
	}
	defer cleanup()
	transports := make([]cluster.Transport, len(nodes))
	for i, node := range nodes {
		transports[i] = node
	}
	masterRes, workerRes, err := cluster.MasterWorkerDeployment(ctx, transports,
		simplex.Uniform(wireWorkers), wireRounds, wireSources(wireWorkers), core.WithInitialAlpha(0.05))
	if err != nil {
		return wireProtocolStats{}, fmt.Errorf("master-worker TCP bench: %w", err)
	}
	msgs := masterRes.Traffic.MsgsSent
	bytes := masterRes.Traffic.BytesSent
	for _, wr := range workerRes {
		msgs += wr.Traffic.MsgsSent
		bytes += wr.Traffic.BytesSent
	}
	return wireProtocolStats{
		MsgsPerRound:  float64(msgs) / wireRounds,
		BytesPerRound: float64(bytes) / wireRounds,
	}, nil
}

func wireFullyDistributedTCP(codec wire.Codec) (wireProtocolStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	nodes, cleanup, err := wireTCPNodes(wireWorkers, codec)
	if err != nil {
		return wireProtocolStats{}, err
	}
	defer cleanup()
	transports := make([]cluster.Transport, len(nodes))
	for i, node := range nodes {
		transports[i] = node
	}
	res, err := cluster.FullyDistributedDeployment(ctx, transports,
		simplex.Uniform(wireWorkers), wireRounds, wireSources(wireWorkers), core.WithInitialAlpha(0.05))
	if err != nil {
		return wireProtocolStats{}, fmt.Errorf("fully-distributed TCP bench: %w", err)
	}
	var msgs, bytes int
	for _, pr := range res {
		msgs += pr.Traffic.MsgsSent
		bytes += pr.Traffic.BytesSent
	}
	return wireProtocolStats{
		MsgsPerRound:  float64(msgs) / wireRounds,
		BytesPerRound: float64(bytes) / wireRounds,
	}, nil
}
