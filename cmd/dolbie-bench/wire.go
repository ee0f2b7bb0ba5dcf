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
	"dolbie/internal/experiments"
	"dolbie/internal/wire"
)

// This file implements the -wire benchmark mode: it counts the protocol
// messages and bytes per round of both DOLBIE protocols on a real
// 8-worker TCP deployment under every wire codec, and writes them to a
// JSON file so the traffic of the codec layer is tracked in-repo. It
// runs the traffic harness of -fig comms (experiments.Traffic) over
// localhost TCP nodes instead of a MemNet. Every field is a pure
// function of the seeded sources, so the report reproduces byte for
// byte. The codec layer's timings and allocations are Go benchmarks
// instead: BenchmarkTCPSendRecv in internal/cluster, and
// TestInstrumentedMessageAllocatesNothing for the metering path.

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
		mw, err := wireTraffic(codec, true)
		if err != nil {
			return err
		}
		rep.MasterWorker[name] = mw
		fd, err := wireTraffic(codec, false)
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

// wireTraffic measures one protocol of wireWorkers workers under codec
// on localhost TCP nodes, with the traffic harness of -fig comms.
func wireTraffic(codec wire.Codec, masterWorker bool) (wireProtocolStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	count := wireWorkers
	if masterWorker {
		count++ // the master
	}
	transports, cleanup, err := wireTCPNodes(count, codec)
	if err != nil {
		return wireProtocolStats{}, err
	}
	defer cleanup()
	msgs, bytes, err := experiments.Traffic(ctx, transports, masterWorker, wireRounds, core.WithInitialAlpha(0.05))
	if err != nil {
		return wireProtocolStats{}, fmt.Errorf("TCP bench: %w", err)
	}
	return wireProtocolStats{MsgsPerRound: msgs, BytesPerRound: bytes}, nil
}

// wireTCPNodes builds count connected localhost TCP nodes on codec.
func wireTCPNodes(count int, codec wire.Codec) ([]cluster.Transport, func(), error) {
	nodes := make([]*cluster.TCPNode, count)
	transports := make([]cluster.Transport, count)
	registry := make(map[int]string, count)
	for i := 0; i < count; i++ {
		node, err := cluster.ListenTCP(i, "127.0.0.1:0", cluster.WithTCPCodec(codec))
		if err != nil {
			for _, n := range nodes[:i] {
				n.Close() //nolint:errcheck // best-effort unwind
			}
			return nil, nil, err
		}
		nodes[i], transports[i] = node, node
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
	return transports, cleanup, nil
}
