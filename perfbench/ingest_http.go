package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dolbie/internal/dispatch"
	"dolbie/internal/metrics"
)

// ingestHTTP drives POST /ingest over loopback: the dispatcher, Live
// engine, metrics registry and mux wired as dolbie-serve -http-addr
// wires them, with 4 admission shards. Two closed-loop keep-alive
// clients each send their next request when the previous verdict is
// back; an op is one round trip. Worker speeds are provisioned so that
// service takes under a nanosecond (no timer is armed) and the queues
// never fill, so every verdict is a 200: the benchmark measures the
// admitted-request path, not the 429 path. One in-process WriteText
// scrape runs mid-slice, about once a second.
type ingestHTTP struct {
	reg     *metrics.Registry
	d       *dispatch.Dispatcher
	live    *dispatch.Live
	srv     *metrics.Server
	inner   http.Handler
	clients [2]*rawClient
	reqs    [2][][]byte // pre-encoded, cycled; the op tag is patched in place
	iter    [2]int
	sent    int64 // requests sent, warm-up included
	opBase  int64

	tracing atomic.Bool
	rtt     []span // indexed by op - opBase; written by the op's client
	spanMu  sync.Mutex
	handler []span // indexed by op - opBase; written under spanMu by the serving goroutine

	scrapeReq  chan struct{}
	scrapeWG   sync.WaitGroup // one pending scrape
	scraperWG  sync.WaitGroup // the scraper goroutine
	scrapeMu   sync.Mutex
	scrapeUS   []float64
	failedOps  [2]int64
	notes      [2][]string // failed ops: non-200 replies, transport errors
	bad        [2][]string // failed checks: unparsable or out-of-range verdicts
	handlerUS  []float64
	overheadUS []float64
}

const (
	ingestShards   = 4
	ingestQueueCap = 1024
	ingestPool     = 1024 // pre-encoded requests per client
	opHeader       = "X-Bench-Op"
	opDigits       = 12
	reqTail        = "\r\nContent-Length: 0\r\n\r\n"
	// ingestSpeedScale multiplies dolbie-serve's live worker speeds so a
	// request's service time Demand/speed truncates to 0 ns.
	ingestSpeedScale = 1e12
)

func (w *ingestHTTP) opsPerSecond() float64 { return 40_000 }

func (w *ingestHTTP) setup(seed int64, work float64) error {
	cfg := dispatch.DefaultServeConfig()
	w.reg = metrics.NewRegistry()
	metrics.RegisterProcessGauges(w.reg)
	d, err := dispatch.New(dispatch.Config{
		N:         cfg.N,
		QueueCap:  ingestQueueCap,
		Shards:    ingestShards,
		BatchSize: cfg.BatchSize,
		Shed:      cfg.Shed,
		Tenants:   cfg.Tenants,
		Metrics:   w.reg,
	})
	if err != nil {
		return err
	}
	w.d = d
	speeds, err := dispatch.LiveWorkerSpeeds(cfg)
	if err != nil {
		return err
	}
	for i := range speeds {
		speeds[i] *= ingestSpeedScale
	}
	w.live, err = dispatch.NewLive(dispatch.LiveConfig{Dispatcher: d, Speeds: speeds, Metrics: w.reg})
	if err != nil {
		return err
	}
	w.inner = w.live.Handler()
	mux := metrics.NewMux(w.reg)
	mux.Handle("/ingest", w)
	w.srv, err = metrics.StartServerMux("127.0.0.1:0", mux)
	if err != nil {
		return err
	}
	w.scrapeReq = make(chan struct{}, 1)
	w.scraperWG.Add(1)
	go w.scraper()

	rng := rand.New(rand.NewSource(seed))
	for c := range w.clients {
		if w.clients[c], err = dialRaw(w.srv.Addr()); err != nil {
			return err
		}
		w.reqs[c] = make([][]byte, ingestPool)
		for i := range w.reqs[c] {
			w.reqs[c][i] = []byte(fmt.Sprintf("POST /ingest?demand=%.6f HTTP/1.1\r\nHost: perfbench\r\n%s: %0*d%s",
				0.001+rng.ExpFloat64(), opHeader, opDigits, 0, reqTail))
		}
	}
	warm := &slice{ops: int(max(2, 6000*work)), hists: []*hist{newHist(), newHist()}}
	if err := w.prepare(warm); err != nil {
		return err
	}
	if err := w.runSlice(warm); err != nil {
		return err
	}
	return w.settle(warm)
}

// ServeHTTP is the /ingest route: the engine's handler, plus a span
// around it in traced slices, joined to the client's round-trip span
// by the op tag.
func (w *ingestHTTP) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	if !w.tracing.Load() {
		w.inner.ServeHTTP(rw, req)
		return
	}
	t0 := nanotime()
	w.inner.ServeHTTP(rw, req)
	t1 := nanotime()
	op, err := strconv.ParseInt(req.Header.Get(opHeader), 10, 64)
	if i := op - w.opBase; err == nil && i >= 0 && i < int64(len(w.handler)) {
		w.spanMu.Lock()
		w.handler[i] = span{name: "handler", start: t0, end: t1, parent: int(i), op: op}
		w.spanMu.Unlock()
	}
}

func (w *ingestHTTP) scraper() {
	defer w.scraperWG.Done()
	for range w.scrapeReq {
		t0 := nanotime()
		err := w.reg.WriteText(io.Discard)
		us := float64(nanotime()-t0) / 1e3
		w.scrapeMu.Lock()
		if err == nil {
			w.scrapeUS = append(w.scrapeUS, us)
		}
		w.scrapeMu.Unlock()
		w.scrapeWG.Done()
	}
}

func (w *ingestHTTP) prepare(sl *slice) error {
	w.opBase = w.sent
	w.rtt, w.handler = nil, nil
	if sl.traced {
		w.rtt = make([]span, sl.ops)
		w.handler = make([]span, sl.ops)
	}
	w.tracing.Store(sl.traced)
	return nil
}

func (w *ingestHTTP) runSlice(sl *slice) error {
	var wg sync.WaitGroup
	n0 := sl.ops - sl.ops/2
	for c := 0; c < 2; c++ {
		lo, hi := 0, n0
		if c == 1 {
			lo, hi = n0, sl.ops
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.client(c, lo, hi, sl.hists[c])
		}()
	}
	wg.Wait()
	w.sent += int64(sl.ops)
	return nil
}

// client sends ops [lo, hi) of the slice, one at a time.
func (w *ingestHTTP) client(c, lo, hi int, h *hist) {
	cl := w.clients[c]
	n := w.d.N()
	for i := lo; i < hi; i++ {
		req := w.reqs[c][w.iter[c]%ingestPool]
		w.iter[c]++
		off := len(req) - len(reqTail) - opDigits
		putDigits(req[off:off+opDigits], w.opBase+int64(i))
		if c == 0 && i == (lo+hi)/2 {
			w.scrapeWG.Add(1)
			w.scrapeReq <- struct{}{}
		}
		t0 := nanotime()
		rep, err := cl.do(req)
		t1 := nanotime()
		h.add(t1 - t0)
		if w.rtt != nil {
			w.rtt[i] = span{name: "rtt", start: t0, end: t1, parent: -1, op: w.opBase + int64(i)}
		}
		switch {
		case err != nil: // transport error: the connection is gone
			w.failedOps[c]++
			w.note(c, fmt.Sprintf("client %d op %d: %v", c, w.opBase+int64(i), err))
			_ = cl.Close() // already broken; a fresh connection replaces it
			if cl, err = dialRaw(w.srv.Addr()); err != nil {
				w.failedOps[c] += int64(hi - i - 1)
				return
			}
			w.clients[c] = cl
		case rep.status != http.StatusOK:
			w.failedOps[c]++
			w.note(c, fmt.Sprintf("client %d op %d: status %d (Retry-After %d)", c, w.opBase+int64(i), rep.status, rep.retryAfter))
		default:
			outcome, worker, err := parseVerdict(rep.body)
			if err == nil && (worker < 0 || worker >= n || (outcome != "routed" && outcome != "spilled")) {
				err = fmt.Errorf("verdict %q out of range", rep.body)
			}
			if err != nil {
				w.bad[c] = append(w.bad[c], fmt.Sprintf("client %d op %d: %v", c, w.opBase+int64(i), err))
			}
		}
	}
}

// note keeps the first few failure messages of client c for the log.
func (w *ingestHTTP) note(c int, msg string) {
	if len(w.notes[c]) < 5 {
		w.notes[c] = append(w.notes[c], msg)
	}
}

// putDigits writes v in decimal, zero-padded, over b.
func putDigits(b []byte, v int64) {
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = byte('0' + v%10)
		v /= 10
	}
}

func (w *ingestHTTP) settle(sl *slice) error {
	w.scrapeWG.Wait()
	w.tracing.Store(false)
	if !w.live.WaitIdle(10 * time.Second) {
		return fmt.Errorf("queues did not drain: depth %d", w.d.Depth())
	}
	for c := range w.failedOps {
		sl.failed += w.failedOps[c]
		w.failedOps[c] = 0
	}
	if w.rtt == nil {
		return nil
	}
	w.spanMu.Lock()
	spans := append(append([]span(nil), w.rtt...), w.handler...)
	w.spanMu.Unlock()
	for i := range w.handler {
		spans[len(w.rtt)+i].parent = i // the handler span of op i sits in its round trip
	}
	self := selfTimes(spans)
	for i := range w.rtt {
		hs := spans[len(w.rtt)+i]
		if hs.end == 0 {
			continue // lost tag: leave the op out of the per-layer split
		}
		w.handlerUS = append(w.handlerUS, float64(hs.dur())/1e3)
		w.overheadUS = append(w.overheadUS, float64(self[i])/1e3)
	}
	return nil
}

func (w *ingestHTTP) finish(r *result) error {
	for _, n := range w.notes {
		for _, m := range n {
			r.info = append(r.info, "failed op: "+m)
		}
	}
	for _, b := range w.bad {
		for _, s := range b {
			r.fail("ingest_http: %s", s)
		}
	}
	w.live.BeginDrain()
	if !w.live.WaitIdle(10 * time.Second) {
		r.fail("ingest_http: drain timed out at depth %d", w.d.Depth())
	}
	t := w.d.Totals()
	var routed, maxRouted int64
	for _, x := range t.Routed {
		routed += x
		maxRouted = max(maxRouted, x)
	}
	if t.Completed != routed {
		r.fail("ingest_http: completed %d != routed %d after drain", t.Completed, routed)
	}
	if t.Arrivals != routed+t.Shed+t.Blocked {
		r.fail("ingest_http: arrivals %d != routed %d + shed %d + blocked %d", t.Arrivals, routed, t.Shed, t.Blocked)
	}
	if t.Arrivals != w.sent {
		r.fail("ingest_http: %d arrivals for %d requests sent", t.Arrivals, w.sent)
	}
	if routed > 0 {
		r.globalCost = float64(maxRouted) / (float64(routed) / float64(len(t.Routed)))
	}
	lat := w.live.CompletionLatencies()
	us := make([]float64, len(lat))
	for i, s := range lat {
		us[i] = s * 1e6
	}
	pl := r.perLayer
	pl["dispatch.live.retained_samples"] = float64(len(lat))
	pl["dispatch.live.completion_us_p50"] = median(us)
	pl["dispatch.live.completion_us_p99"] = percentile(us, 99)
	// Service takes 0 ns, so a request's whole completion latency is
	// time spent waiting for its worker to wake and pop it.
	pl["dispatch.live.wait_us_mean"] = mean(us)
	pl["dispatch.ingest.handler_us_p50"] = median(w.handlerUS)
	pl["dispatch.ingest.handler_us_p99"] = percentile(w.handlerUS, 99)
	pl["net.http.overhead_us_p50"] = median(w.overheadUS)
	w.scrapeMu.Lock()
	pl["metrics.scrape_us_p50"] = median(w.scrapeUS)
	if len(w.scrapeUS) > 0 {
		pl["metrics.scrape_us_max"] = percentile(w.scrapeUS, 100)
	}
	w.scrapeMu.Unlock()
	return nil
}

func (w *ingestHTTP) close() {
	for _, c := range w.clients {
		if c != nil {
			_ = c.Close()
		}
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = w.srv.Shutdown(ctx) // best effort: the run's outputs are already checked
		cancel()
	}
	if w.live != nil {
		w.live.Close()
	}
	if w.scrapeReq != nil {
		close(w.scrapeReq)
		w.scraperWG.Wait()
	}
}
