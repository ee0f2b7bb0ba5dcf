package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dolbie/internal/cluster"
	"dolbie/internal/core"
	"dolbie/internal/costfn"
	"dolbie/internal/metrics"
	"dolbie/internal/wire"
)

// roundsFD runs Algorithm 2 (fully distributed DOLBIE) with 8 peers over
// the in-memory transport through cluster.FullyDistributedDeployment,
// one deployment per slice. An op is one round, timed at peer 0 from one
// cost observation to the next. Every peer is fed a seeded affine cost
// stream, the shape of every in-repo cost source (mlsim, edgesim and
// serve's fitted model), so the monotone inverse is closed-form.
type roundsFD struct {
	seed   int64
	reg    *metrics.Registry
	slopes [][]float64 // [round][peer], regenerated per slice
	icepts [][]float64

	stamps []int64 // peer 0's observation times in the current slice
	tr     *fdTrace
	res    []cluster.PeerResult
	err    error

	costs     []float64 // per round: max_i l_{i,t}
	firstCost []float64 // slice 0's per-round global costs, for the replay
	rounds    int64
	msgs      int64
	bytes     int64
	bad       []string

	// per-layer data from traced slices
	observeUS, sendUS, recvUS, selfUS []float64
	sends, tracedRounds               int64
	captured                          []wire.Envelope
}

const fdPeers = 8

func (w *roundsFD) opsPerSecond() float64 { return 12_000 }

func (w *roundsFD) setup(seed int64, work float64) error {
	w.seed = seed
	w.reg = metrics.NewRegistry()
	// The warm-up deployment uses a stream disjoint from the timed ones.
	rounds := int(max(50, 2000*work))
	w.costStream(-1, rounds)
	res, err := w.deploy(rounds, make([]int64, rounds), nil)
	if err == nil {
		w.checkRounds(-1, rounds, res)
	}
	return err
}

// costStream fills the per-round affine costs of stream k: peer i's
// slope wanders around a fixed per-peer base (an AR(1) in log space),
// and its intercept models a fixed communication time.
func (w *roundsFD) costStream(k, rounds int) {
	rng := rand.New(rand.NewSource(w.seed*7919 + int64(k)))
	if cap(w.slopes) < rounds {
		w.slopes = make([][]float64, rounds)
		w.icepts = make([][]float64, rounds)
		for t := range w.slopes {
			w.slopes[t] = make([]float64, fdPeers)
			w.icepts[t] = make([]float64, fdPeers)
		}
	}
	w.slopes, w.icepts = w.slopes[:rounds], w.icepts[:rounds]
	var drift [fdPeers]float64
	for t := 0; t < rounds; t++ {
		for i := 0; i < fdPeers; i++ {
			drift[i] = 0.9*drift[i] + 0.1*rng.NormFloat64()
			w.slopes[t][i] = (1 + 0.5*float64(i)) * math.Exp(drift[i])
			w.icepts[t][i] = 0.05 * (1 + float64(i%3))
		}
	}
}

// fdTrace is what a traced deployment records: peer 0's spans and a
// sample of its envelopes, and every peer's send count.
type fdTrace struct {
	log      *spanLog
	sent     []int64 // per peer; each peer's goroutine writes its own slot
	captured []wire.Envelope
}

// deploy runs one deployment of the given rounds over the current cost
// stream, stamping peer 0's observations into stamps. With tr non-nil,
// the transport and cost-source wrappers record spans at peer 0.
func (w *roundsFD) deploy(rounds int, stamps []int64, tr *fdTrace) ([]cluster.PeerResult, error) {
	net := cluster.NewMemNet()
	transports := make([]cluster.Transport, fdPeers)
	sources := make([]cluster.CostSource, fdPeers)
	for i := 0; i < fdPeers; i++ {
		transports[i] = &benchTransport{inner: net.Node(i), id: i, tr: tr}
		sources[i] = &affineSource{w: w, id: i, stamps: stamps, tr: tr}
	}
	x0 := make([]float64, fdPeers)
	for i := range x0 {
		x0[i] = 1.0 / fdPeers
	}
	res, err := cluster.FullyDistributedDeployment(context.Background(), transports, x0, rounds, sources, core.WithMetrics(w.reg))
	for _, t := range transports {
		_ = t.Close() // closing a MemNet node only marks its inbox closed
	}
	return res, err
}

// checkRounds verifies every round's played shares: all peers report
// every round, shares are non-negative and sum to 1 within 1e-9. It
// also records the global costs and exact traffic counts.
func (w *roundsFD) checkRounds(k, rounds int, res []cluster.PeerResult) {
	for _, p := range res {
		if len(p.Played) != rounds || len(p.Costs) != rounds {
			w.bad = append(w.bad, fmt.Sprintf("stream %d: peer %d reports %d rounds, want %d", k, p.ID, len(p.Played), rounds))
			return
		}
	}
	if k < 0 {
		return
	}
	for t := 0; t < rounds; t++ {
		sum, worst := 0.0, 0.0
		for _, p := range res {
			x := p.Played[t]
			if x < 0 || math.IsNaN(x) {
				w.bad = append(w.bad, fmt.Sprintf("stream %d round %d: peer %d played %v", k, t+1, p.ID, x))
			}
			sum += x
			worst = max(worst, p.Costs[t])
		}
		if math.Abs(sum-1) > 1e-9 {
			w.bad = append(w.bad, fmt.Sprintf("stream %d round %d: shares sum to %.12f", k, t+1, sum))
		}
		w.costs = append(w.costs, worst)
		if k == 0 {
			w.firstCost = append(w.firstCost, worst)
		}
	}
	for _, p := range res {
		w.msgs += int64(p.Traffic.MsgsSent)
		w.bytes += int64(p.Traffic.BytesSent)
	}
	w.rounds += int64(rounds)
}

func (w *roundsFD) prepare(sl *slice) error {
	w.costStream(sl.index, sl.ops)
	if cap(w.stamps) < sl.ops {
		w.stamps = make([]int64, sl.ops)
	}
	w.stamps = w.stamps[:sl.ops]
	w.tr = nil
	if sl.traced {
		w.tr = &fdTrace{log: newSpanLog(32 * sl.ops), sent: make([]int64, fdPeers)}
	}
	return nil
}

func (w *roundsFD) runSlice(sl *slice) error {
	w.res, w.err = w.deploy(sl.ops, w.stamps, w.tr)
	return nil
}

func (w *roundsFD) settle(sl *slice) error {
	if w.err != nil {
		sl.failed += int64(sl.ops)
		w.bad = append(w.bad, fmt.Sprintf("stream %d: %v", sl.index, w.err))
		return nil
	}
	w.checkRounds(sl.index, sl.ops, w.res)
	h := sl.hists[0]
	for t := 1; t < len(w.stamps); t++ {
		h.add(w.stamps[t] - w.stamps[t-1])
	}
	if w.tr != nil {
		w.traced(w.stamps, w.tr)
	}
	return nil
}

// traced turns peer 0's spans into per-layer samples. Each round is a
// root span from one observation to the next; the observe, send and
// receive spans inside it are its children, so the round's self time is
// the time spent in the peer's own code (core.PeerState and RunPeer).
func (w *roundsFD) traced(stamps []int64, tr *fdTrace) {
	spans := tr.log.spans
	for _, c := range spans {
		switch c.name {
		case "observe":
			w.observeUS = append(w.observeUS, float64(c.dur())/1e3)
		case "send":
			w.sendUS = append(w.sendUS, float64(c.dur())/1e3)
		case "recv":
			w.recvUS = append(w.recvUS, float64(c.dur())/1e3)
		}
	}
	all := make([]span, 0, len(stamps)+len(spans))
	for t := 1; t < len(stamps); t++ {
		all = append(all, span{name: "round", start: stamps[t-1], end: stamps[t], parent: -1, op: int64(t)})
	}
	// Children are attached by containment: spans are in time order
	// and rounds tile peer 0's timeline.
	r := 0
	for _, c := range spans {
		for r < len(stamps)-1 && c.start >= stamps[r+1] {
			r++
		}
		if r < len(stamps)-1 && c.start >= stamps[r] {
			c.parent = r
			all = append(all, c)
		}
	}
	self := selfTimes(all)
	for t := 0; t < len(stamps)-1; t++ {
		w.selfUS = append(w.selfUS, float64(self[t])/1e3)
	}
	for _, n := range tr.sent {
		w.sends += n
	}
	w.tracedRounds += int64(len(stamps))
	if len(w.captured) == 0 {
		w.captured = tr.captured
	}
}

func (w *roundsFD) finish(r *result) error {
	// A shorter replay of stream 0 must reproduce its global costs bit
	// for bit: Algorithm 2 is deterministic given its cost stream, and
	// rounds are causal, so a prefix replays exactly.
	if n := min(len(w.firstCost), 200); n > 0 {
		w.costStream(0, n)
		res, err := w.deploy(n, make([]int64, n), nil)
		if err != nil {
			w.bad = append(w.bad, fmt.Sprintf("replay: %v", err))
		}
		for t := 0; err == nil && t < n; t++ {
			worst := 0.0
			for _, p := range res {
				worst = max(worst, p.Costs[t])
			}
			if worst != w.firstCost[t] {
				w.bad = append(w.bad, fmt.Sprintf("replay of stream 0 differs at round %d", t+1))
				break
			}
		}
	}
	for _, b := range w.bad {
		r.fail("rounds_fd: %s", b)
	}
	r.globalCost = mean(w.costs)
	pl := r.perLayer
	if w.rounds > 0 {
		pl["wire.msgs_per_round"] = float64(w.msgs) / float64(w.rounds)
		pl["wire.bytes_per_round"] = float64(w.bytes) / float64(w.rounds)
	}
	if w.tracedRounds > 0 {
		pl["cluster.sends_per_round"] = float64(w.sends) / float64(w.tracedRounds)
		pl["cluster.observe_us_p50"] = median(w.observeUS)
		pl["cluster.send_us_p50"] = median(w.sendUS)
		pl["cluster.recv_wait_us_p50"] = median(w.recvUS)
		pl["cluster.recv_wait_us_p99"] = percentile(w.recvUS, 99)
		pl["core.self_us_p50"] = median(w.selfUS)
		enc, dec := frameCodecNS(w.captured)
		pl["wire.encode_ns_per_frame"] = enc
		pl["wire.decode_ns_per_frame"] = dec
	}
	h := w.reg.Histogram(core.MetricBisectionIters, "", nil)
	if c := h.Count(); c > 0 {
		pl["costfn.bisection_iters_mean"] = h.Sum() / float64(c)
	}
	return nil
}

func (w *roundsFD) close() {}

// frameCodecNS re-frames envelopes captured from a round with the
// binary codec through wire.WriteFrame and wire.ReadFrame, and returns
// the mean encode and decode time per frame in ns.
func frameCodecNS(envs []wire.Envelope) (enc, dec float64) {
	if len(envs) == 0 {
		return 0, 0
	}
	const reps = 2000
	var buf bytes.Buffer
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		buf.Reset()
		for _, e := range envs {
			if _, err := wire.WriteFrame(&buf, wire.Binary, e); err != nil {
				return 0, 0
			}
		}
	}
	enc = float64(time.Since(t0).Nanoseconds()) / float64(reps*len(envs))
	frames := buf.Bytes()
	rd := bytes.NewReader(frames)
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		rd.Reset(frames)
		for range envs {
			if _, _, err := wire.ReadFrame(rd, wire.Binary); err != nil {
				return enc, 0
			}
		}
	}
	dec = float64(time.Since(t0).Nanoseconds()) / float64(reps*len(envs))
	return enc, dec
}

// affineSource is peer id's cost feedback: round t's affine cost from
// the current stream. Peer 0 stamps every observation, which is how a
// round is timed from outside the program.
type affineSource struct {
	w      *roundsFD
	id     int
	stamps []int64
	tr     *fdTrace
}

func (s *affineSource) Observe(round int, x float64) (float64, costfn.Func, error) {
	var t0 int64
	if s.id == 0 {
		t0 = nanotime()
		s.stamps[round-1] = t0
	}
	f := costfn.Affine{Slope: s.w.slopes[round-1][s.id], Intercept: s.w.icepts[round-1][s.id]}
	cost := f.Eval(x)
	if s.id == 0 && s.tr != nil {
		s.tr.log.add("observe", t0, nanotime(), -1, int64(round))
	}
	return cost, f, nil
}

// benchTransport wraps a peer's transport. Untraced it only forwards;
// traced, it records peer 0's send and receive spans, counts every
// peer's sends, and keeps a sample of peer 0's envelopes for the codec
// timing. RunPeer calls Send and Recv from one goroutine, so peer 0's
// span log has a single writer.
type benchTransport struct {
	inner cluster.Transport
	id    int
	tr    *fdTrace
}

func (t *benchTransport) Send(ctx context.Context, to int, env cluster.Envelope) (int, error) {
	if t.tr == nil {
		return t.inner.Send(ctx, to, env)
	}
	t0 := nanotime()
	n, err := t.inner.Send(ctx, to, env)
	t1 := nanotime()
	t.tr.sent[t.id]++
	if t.id == 0 {
		t.tr.log.add("send", t0, t1, -1, 0)
		if len(t.tr.captured) < 64 {
			t.tr.captured = append(t.tr.captured, env)
		}
	}
	return n, err
}

func (t *benchTransport) Recv(ctx context.Context) (cluster.Envelope, int, error) {
	if t.tr == nil || t.id != 0 {
		return t.inner.Recv(ctx)
	}
	t0 := nanotime()
	env, n, err := t.inner.Recv(ctx)
	t.tr.log.add("recv", t0, nanotime(), -1, 0)
	return env, n, err
}

func (t *benchTransport) Close() error { return t.inner.Close() }
