package dispatch

import (
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"dolbie/internal/metrics"
)

// LiveConfig parameterizes a Live engine — the wall-clock counterpart
// of the virtual-time Serve loop, built for real socket traffic.
type LiveConfig struct {
	// Dispatcher is the admission path the engine drains. Required; the
	// engine owns its completion side (no other goroutine may call
	// Complete while the engine runs).
	Dispatcher *Dispatcher
	// Speeds is each worker's constant service speed in work units per
	// wall-clock second (a request of demand D occupies its worker for
	// D/speed real seconds). nil runs every worker at speed 1; use
	// LiveWorkerSpeeds to mirror a simulated cluster's catalog means.
	Speeds []float64
	// Metrics registers the dolbie_dispatch_live_* family; nil
	// disables. Pass the same registry as the dispatcher's so one
	// scrape covers both.
	Metrics *metrics.Registry
	// Now supplies the engine's clock in monotone wall seconds —
	// arrival timestamps submitted through the engine's Handler and the
	// completion timestamps it records must share it. nil defaults to
	// seconds since NewLive.
	Now func() float64
}

// liveLatencyWindow bounds the Live engine's completion-latency record:
// it keeps the most recent 262,144 samples (2 MiB), so an engine's
// memory does not grow with the number of requests it has served. The
// size also keeps the engine's heap above the Go runtime's 4 MB
// minimum GC goal: with a 512 KiB window, collections on the ingest
// path came about once per thousand requests and its p99 rose by up to
// a quarter (DESIGN §15).
const liveLatencyWindow = 1 << 18

// Live drains a Dispatcher in real time: one goroutine per worker
// serves the worker's queue head for Demand/speed wall-clock seconds,
// then completes it and records the request's wall-clock latency.
// Admissions arrive through Submit (or the Handler HTTP adapter), which
// wakes the routed worker; the AdminHandler exposes graceful drain and
// hot reload of shed policy, queue caps, and routing weights. Safe for
// concurrent use.
type Live struct {
	d      *Dispatcher
	speeds []float64
	now    func() float64
	wake   []chan struct{} // buffered(1) per worker: a send after push is never lost
	stop   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
	li     *liveInstruments

	mu     sync.Mutex
	lat    []float64 // the latest wall-clock completion latencies (s); a ring once full
	oldest int       // index of the oldest sample in lat once it is full
}

// NewLive validates the configuration and starts the worker goroutines.
// Stop the engine with Close (after BeginDrain + WaitIdle for a
// graceful shutdown).
func NewLive(cfg LiveConfig) (*Live, error) {
	d := cfg.Dispatcher
	if d == nil {
		return nil, fmt.Errorf("dispatch: LiveConfig.Dispatcher is required")
	}
	n := d.N()
	speeds := cfg.Speeds
	if speeds == nil {
		speeds = make([]float64, n)
		for i := range speeds {
			speeds[i] = 1
		}
	}
	if len(speeds) != n {
		return nil, fmt.Errorf("dispatch: got %d speeds for %d workers", len(speeds), n)
	}
	for i, s := range speeds {
		if s <= 0 || s != s {
			return nil, fmt.Errorf("dispatch: speed[%d] = %v must be positive", i, s)
		}
	}
	now := cfg.Now
	if now == nil {
		start := time.Now()
		now = func() float64 { return time.Since(start).Seconds() }
	}
	l := &Live{
		d:      d,
		speeds: append([]float64(nil), speeds...),
		now:    now,
		wake:   make([]chan struct{}, n),
		stop:   make(chan struct{}),
		li:     newLiveInstruments(cfg.Metrics),
	}
	for i := range l.wake {
		l.wake[i] = make(chan struct{}, 1)
	}
	if l.li != nil {
		// The gauges refresh at scrape time from lock-free reads — the
		// serving hot path never touches the registry.
		cfg.Metrics.OnCollect(func() {
			l.li.inflight.Set(float64(d.Depth()))
			v := 0.0
			if d.Draining() {
				v = 1
			}
			l.li.draining.Set(v)
		})
	}
	l.wg.Add(n)
	for w := 0; w < n; w++ {
		go l.worker(w)
	}
	return l, nil
}

// Dispatcher returns the engine's underlying admission path.
func (l *Live) Dispatcher() *Dispatcher { return l.d }

// Submit admits one request through the dispatcher and wakes the routed
// worker. The wake channel is buffered, and the send happens after the
// queue push committed, so a routed request is never stranded waiting
// for a signal that was dropped.
func (l *Live) Submit(r Request) Verdict {
	v := l.d.Submit(r)
	if v.Worker >= 0 {
		select {
		case l.wake[v.Worker] <- struct{}{}:
		default:
		}
	}
	return v
}

// Handler returns the engine's HTTP ingest adapter: the IngestHandler
// protocol (see its status-code table) with admissions routed through
// Submit so workers wake, and — when instrumented — server-side handler
// latency observed into dolbie_dispatch_live_ingest_latency_seconds.
func (l *Live) Handler() http.Handler {
	h := ingestCore(l.d, l.Submit, l.now)
	if l.li == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, req)
		l.li.ingestLatency.Observe(time.Since(t0).Seconds())
	})
}

// BeginDrain gates admission for a graceful drain: every new Submit is
// refused as Blocked (HTTP 503 with Retry-After 5) while the workers
// keep completing everything already queued, so no accepted request is
// ever dropped and the conservation law holds on every snapshot taken
// through the drain. Idempotent; reopen with Resume.
func (l *Live) BeginDrain() {
	if l.d.draining.Swap(true) {
		return
	}
	if l.li != nil {
		l.li.drains.Inc()
	}
}

// Resume reopens admission after a drain.
func (l *Live) Resume() { l.d.SetDraining(false) }

// Draining reports whether the admission gate is in graceful drain.
func (l *Live) Draining() bool { return l.d.Draining() }

// WaitIdle blocks until every queue is empty and no request is in
// service (the dispatcher's lock-free depth reaches zero), or until the
// timeout elapses; it reports whether the system went idle. Call after
// BeginDrain to bound a graceful shutdown.
func (l *Live) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for l.d.Depth() != 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// Retune installs tenant k's routing weights. With drain false the swap
// is the dispatcher's usual stop-the-world epoch (admission never
// pauses). With drain true the engine performs a round-boundary drain
// first: admission is gated (new arrivals get 503 + Retry-After instead
// of connection resets), in-flight requests complete, and only then do
// the weights swap — so the new assignment starts from empty queues —
// before admission reopens. If the queues fail to empty within wait the
// weights are left untouched and admission reopens anyway.
func (l *Live) Retune(k int, w []float64, drain bool, wait time.Duration) error {
	if !drain {
		return l.d.SetTenantWeights(k, w)
	}
	l.BeginDrain()
	defer l.Resume()
	if !l.WaitIdle(wait) {
		return fmt.Errorf("dispatch: retune drain timed out after %v with %d requests still queued", wait, l.d.Depth())
	}
	return l.d.SetTenantWeights(k, w)
}

// CompletionLatencies returns a copy of the wall-clock latencies
// (completion minus arrival, in seconds) of the most recent completed
// requests, oldest first. The engine keeps at most 262,144 of them;
// once that many have completed, each completion replaces the oldest
// sample.
func (l *Live) CompletionLatencies() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Concat(l.lat[l.oldest:], l.lat[:l.oldest])
}

// recordLatency adds one completion latency to the bounded window: it
// appends until the window holds liveLatencyWindow samples, then
// overwrites the oldest. The caller holds l.mu.
func (l *Live) recordLatency(v float64) {
	if len(l.lat) < liveLatencyWindow {
		l.lat = append(l.lat, v)
		return
	}
	l.lat[l.oldest] = v
	l.oldest = (l.oldest + 1) % liveLatencyWindow
}

// Close stops the worker goroutines and waits for them to exit.
// Anything still queued stays queued (nothing is popped, so the
// dispatcher's counters remain consistent); for a graceful shutdown
// call BeginDrain and WaitIdle first. Idempotent.
func (l *Live) Close() {
	l.once.Do(func() { close(l.stop) })
	l.wg.Wait()
}

// worker serves worker w's queue: peek the in-service head, hold it for
// Demand/speed wall-clock seconds, complete it, repeat; block on the
// wake channel when idle. Only this goroutine completes w, so the head
// observed here is exactly the request Complete pops.
func (l *Live) worker(w int) {
	defer l.wg.Done()
	speed := l.speeds[w]
	for {
		r, ok := l.d.Head(w)
		if !ok {
			select {
			case <-l.stop:
				return
			case <-l.wake[w]:
			}
			continue
		}
		if dur := time.Duration(r.Demand / speed * float64(time.Second)); dur > 0 {
			t := time.NewTimer(dur)
			select {
			case <-l.stop:
				t.Stop()
				return
			case <-t.C:
			}
		}
		done := l.now()
		if _, ok := l.d.Complete(w, done); ok {
			if l.li != nil {
				l.li.completions.Inc()
			}
			l.mu.Lock()
			l.recordLatency(done - r.Arrival)
			l.mu.Unlock()
		}
	}
}
