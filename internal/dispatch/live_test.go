package dispatch

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dolbie/internal/metrics"
)

// newTestLive builds an instrumented Live engine over a fresh
// dispatcher and registers cleanup.
func newTestLive(t *testing.T, cfg Config, speeds []float64) (*Live, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLive(LiveConfig{Dispatcher: d, Speeds: speeds, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return l, reg
}

// TestLiveCompletesRequests checks the wall-clock engine end to end:
// every routed request is eventually completed, latencies are captured
// for each, and the live instruments agree.
func TestLiveCompletesRequests(t *testing.T) {
	l, reg := newTestLive(t, Config{N: 4, QueueCap: 64, Shards: 2, Shed: ShedReject}, []float64{50, 100, 200, 400})
	var routed int64
	for i := 1; i <= 200; i++ {
		v := l.Submit(Request{ID: int64(i), Arrival: l.now(), Demand: 0.01})
		if v.Outcome == Routed || v.Outcome == Spilled {
			routed++
		}
	}
	if !l.WaitIdle(10 * time.Second) {
		t.Fatalf("queues did not drain: depth %d", l.Dispatcher().Depth())
	}
	tot := l.Dispatcher().Totals()
	if tot.Completed != routed {
		t.Fatalf("completed %d of %d routed", tot.Completed, routed)
	}
	lats := l.CompletionLatencies()
	if int64(len(lats)) != routed {
		t.Fatalf("captured %d latencies for %d completions", len(lats), routed)
	}
	for i, v := range lats {
		if v < 0 {
			t.Fatalf("latency[%d] = %v is negative", i, v)
		}
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if got := scrapeValue(t, text, MetricLiveCompletions); int64(got) != routed {
		t.Fatalf("%s = %v, want %d", MetricLiveCompletions, got, routed)
	}
	if got := scrapeValue(t, text, MetricLiveInflight); got != 0 {
		t.Fatalf("%s = %v after drain, want 0", MetricLiveInflight, got)
	}
}

// TestLiveLatencyWindowKeepsNewest completes more requests than the
// latency window holds and checks that the engine keeps exactly the
// newest window's worth, oldest first. One worker completes in FIFO
// order, and with the clock pinned at 0 a request arriving at -i
// records latency i, so every sample names its request.
func TestLiveLatencyWindowKeepsNewest(t *testing.T) {
	const chunk, extra = 4096, 100
	d, err := New(Config{N: 1, QueueCap: chunk, Shed: ShedReject})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLive(LiveConfig{Dispatcher: d, Now: func() float64 { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	total := liveLatencyWindow + extra
	for i := 1; i <= total; i++ {
		if v := l.Submit(Request{ID: int64(i), Arrival: -float64(i)}); v.Outcome != Routed {
			t.Fatalf("request %d: outcome %v", i, v.Outcome)
		}
		if i%chunk == 0 || i == total {
			if !l.WaitIdle(10 * time.Second) {
				t.Fatalf("queue did not drain: depth %d", d.Depth())
			}
		}
	}
	lats := l.CompletionLatencies()
	if len(lats) != liveLatencyWindow {
		t.Fatalf("kept %d latencies after %d completions, want the window of %d", len(lats), total, liveLatencyWindow)
	}
	for j, v := range lats {
		if want := float64(extra + 1 + j); v != want {
			t.Fatalf("latency[%d] = %v, want %v (the newest %d, oldest first)", j, v, want, liveLatencyWindow)
		}
	}
}

// TestLiveGracefulDrainConservation is the shutdown-mid-storm
// guarantee: with submitters still hammering the engine — half of them
// in process, half as keep-alive HTTP clients of Live.Handler over a
// real socket — BeginDrain must refuse new arrivals as Blocked (never
// dropping anything already accepted), the workers must finish every
// queued request, and the conservation law arrivals == sum(routed) +
// shed + blocked must hold on the post-drain totals — with zero
// accepted loss, completed == sum(routed). Every HTTP reply must agree
// with its status code. Run with -race.
func TestLiveGracefulDrainConservation(t *testing.T) {
	const n = 4
	l, _ := newTestLive(t, Config{N: n, QueueCap: 32, Shards: 4, Shed: ShedReject}, []float64{200, 200, 400, 800})
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()
	client := srv.Client()
	const submitters = 4
	var (
		seq     atomic.Int64
		replies atomic.Int64
		stop    atomic.Bool
		wg      sync.WaitGroup
		start   = time.Now()
	)
	clock := func() float64 { return time.Since(start).Seconds() }
	wg.Add(submitters)
	for g := 0; g < submitters; g++ {
		if g%2 == 0 {
			go func() {
				defer wg.Done()
				for !stop.Load() {
					l.Submit(Request{ID: seq.Add(1), Arrival: clock(), Demand: 0.002})
				}
			}()
			continue
		}
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := postIngestChecked(client, srv.URL+"/ingest?demand=0.002", n); err != nil {
					t.Error(err)
					return
				}
				replies.Add(1)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the storm build real queue depth
	l.BeginDrain()
	if !l.WaitIdle(10 * time.Second) {
		t.Fatalf("drain did not empty the queues: depth %d", l.Dispatcher().Depth())
	}
	stop.Store(true)
	wg.Wait()

	tot := l.Dispatcher().Totals()
	var routed int64
	for _, r := range tot.Routed {
		routed += r
	}
	if routed == 0 || tot.Blocked == 0 || replies.Load() == 0 {
		t.Fatalf("storm too weak to exercise the drain: routed %d, blocked %d, HTTP replies %d", routed, tot.Blocked, replies.Load())
	}
	if got := tot.Arrivals; got != routed+tot.Shed+tot.Blocked {
		t.Fatalf("conservation violated through drain: arrivals %d != routed %d + shed %d + blocked %d",
			got, routed, tot.Shed, tot.Blocked)
	}
	if tot.Completed != routed {
		t.Fatalf("accepted requests lost in drain: completed %d of %d routed", tot.Completed, routed)
	}
	// The gate stays shut after the drain: a fresh arrival is Blocked,
	// over HTTP with the draining backoff hint, and reopening admits
	// again.
	if v := l.Submit(Request{ID: seq.Add(1), Arrival: clock(), Demand: 1}); v.Outcome != Blocked {
		t.Fatalf("post-drain submit outcome %v, want Blocked", v.Outcome)
	}
	resp, err := client.Post(srv.URL+"/ingest", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "5" {
		t.Fatalf("post-drain POST: status %d Retry-After %q, want 503 and 5", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	l.Resume()
	if v := l.Submit(Request{ID: seq.Add(1), Arrival: clock(), Demand: 0.001}); v.Outcome != Routed {
		t.Fatalf("post-resume submit outcome %v, want Routed", v.Outcome)
	}
	if !l.WaitIdle(10 * time.Second) {
		t.Fatal("post-resume request never completed")
	}
}

// postIngestChecked POSTs one admission and checks that the reply body
// agrees with its status: 200 carries a routed or spilled verdict on a
// worker in [0, n), 429 a shed verdict and 503 a blocked one, each
// refusal with a Retry-After hint.
func postIngestChecked(client *http.Client, url string, n int) error {
	resp, err := client.Post(url, "", nil)
	if err != nil {
		return fmt.Errorf("POST /ingest: %w", err)
	}
	// Read to EOF so the keep-alive connection is reused.
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("POST /ingest: reading reply: %w", err)
	}
	var body ingestResponse
	if err := json.Unmarshal(raw, &body); err != nil {
		return fmt.Errorf("POST /ingest: status %d: undecodable body %q: %w", resp.StatusCode, raw, err)
	}
	retryAfter := resp.Header.Get("Retry-After")
	switch resp.StatusCode {
	case http.StatusOK:
		if (body.Outcome != "routed" && body.Outcome != "spilled") || body.Worker < 0 || body.Worker >= n {
			return fmt.Errorf("200 reply %+v: want a routed or spilled verdict on a worker in [0, %d)", body, n)
		}
		return nil
	case http.StatusTooManyRequests:
		if body.Outcome != "shed" || retryAfter == "" {
			return fmt.Errorf("429 reply %+v, Retry-After %q: want a shed verdict with a backoff hint", body, retryAfter)
		}
	case http.StatusServiceUnavailable:
		if body.Outcome != "blocked" || retryAfter == "" {
			return fmt.Errorf("503 reply %+v, Retry-After %q: want a blocked verdict with a backoff hint", body, retryAfter)
		}
	default:
		return fmt.Errorf("unexpected status %d, reply %+v", resp.StatusCode, body)
	}
	if body.Worker != -1 {
		return fmt.Errorf("refusal %+v names worker %d, want -1", body, body.Worker)
	}
	return nil
}

// adminDo drives one admin call and decodes the status body.
func adminDo(t *testing.T, client *http.Client, method, url string) (int, adminStatus) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st adminStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("bad status body %q: %v", body, err)
		}
	}
	return resp.StatusCode, st
}

// TestAdminHotReloadRoundTrip exercises every admin endpoint over a
// real socket: shed policy and queue cap hot reloads land on the
// dispatcher (and in the status body), drain/resume toggle the ingest
// gate between 503 and 200, and a drained weights swap installs the new
// vector. Run with -race.
func TestAdminHotReloadRoundTrip(t *testing.T) {
	l, reg := newTestLive(t, Config{
		N:        2,
		QueueCap: 16,
		Tenants:  []TenantConfig{{Name: "gold"}, {Name: "bronze", Priority: PriorityBronze, Shed: ShedReject}},
	}, nil)
	mux := http.NewServeMux()
	mux.Handle("/ingest", l.Handler())
	mux.Handle("/admin/", l.AdminHandler())
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := srv.Client()

	// Hot-reload tenant 1's shed policy and verify the round trip
	// through both the dispatcher and the status body.
	code, st := adminDo(t, client, http.MethodPost, srv.URL+"/admin/shed?tenant=1&policy=block")
	if code != http.StatusOK {
		t.Fatalf("shed reload: status %d", code)
	}
	if got, _ := l.Dispatcher().TenantShed(1); got != ShedBlock {
		t.Fatalf("tenant 1 shed = %v after reload, want block", got)
	}
	if st.Tenants[1].Shed != "block" || st.Tenants[0].Shed != "reject" {
		t.Fatalf("status tenants = %+v, want shed block on tenant 1 only", st.Tenants)
	}

	// Hot-reload the queue cap both ways.
	if code, st = adminDo(t, client, http.MethodPost, srv.URL+"/admin/cap?cap=128"); code != http.StatusOK || st.QueueCap != 128 {
		t.Fatalf("cap raise: status %d, queue_cap %d", code, st.QueueCap)
	}
	if got := l.Dispatcher().QueueCap(); got != 128 {
		t.Fatalf("QueueCap = %d after reload, want 128", got)
	}
	if code, _ = adminDo(t, client, http.MethodPost, srv.URL+"/admin/cap?cap=8"); code != http.StatusOK {
		t.Fatalf("cap shrink: status %d", code)
	}

	// Drain gates the ingest path at 503 with the 5s re-resolve hint;
	// resume reopens it.
	if code, st = adminDo(t, client, http.MethodPost, srv.URL+"/admin/drain"); code != http.StatusOK || !st.Draining {
		t.Fatalf("drain: status %d, draining %v", code, st.Draining)
	}
	resp, err := client.Post(srv.URL+"/ingest?demand=0.001", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "5" {
		t.Fatalf("draining ingest: status %d, Retry-After %q, want 503 with 5", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if code, st = adminDo(t, client, http.MethodPost, srv.URL+"/admin/resume"); code != http.StatusOK || st.Draining {
		t.Fatalf("resume: status %d, draining %v", code, st.Draining)
	}
	resp, err = client.Post(srv.URL+"/ingest?demand=0.001", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-resume ingest: status %d, want 200", resp.StatusCode)
	}

	// Drained round-boundary weights swap: the new vector lands and the
	// gate is reopened afterwards.
	code, st = adminDo(t, client, http.MethodPost, srv.URL+"/admin/weights?tenant=0&w=3,1&drain=1&wait-ms=5000")
	if code != http.StatusOK {
		t.Fatalf("weights reload: status %d", code)
	}
	if w := l.Dispatcher().TenantWeights(0); len(w) != 2 || w[0] != 3 || w[1] != 1 {
		t.Fatalf("weights after drained swap = %v, want [3 1]", w)
	}
	if st.Draining {
		t.Fatal("gate left shut after drained weights swap")
	}

	// Bad inputs are 400s, wrong methods 405s, and the reload counters
	// tally every applied change.
	if code, _ = adminDo(t, client, http.MethodPost, srv.URL+"/admin/shed?policy=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus policy: status %d, want 400", code)
	}
	if code, _ = adminDo(t, client, http.MethodPost, srv.URL+"/admin/cap?cap=0"); code != http.StatusBadRequest {
		t.Fatalf("zero cap: status %d, want 400", code)
	}
	if code, _ = adminDo(t, client, http.MethodPost, srv.URL+"/admin/drain?wait-ms=soon"); code != http.StatusBadRequest || l.Dispatcher().Draining() {
		t.Fatalf("bad wait-ms: status %d, draining %v; want 400 and no drain", code, l.Dispatcher().Draining())
	}
	if code, _ = adminDo(t, client, http.MethodGet, srv.URL+"/admin/drain"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET drain: status %d, want 405", code)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for knob, want := range map[string]float64{"shed": 1, "cap": 2, "weights": 1} {
		series := fmt.Sprintf("%s{knob=%q}", MetricLiveReloads, knob)
		if got := scrapeValue(t, text, series); got != want {
			t.Fatalf("%s = %v, want %v", series, got, want)
		}
	}
	if got := scrapeValue(t, text, MetricLiveDrains); got != 2 {
		t.Fatalf("%s = %v, want 2 (explicit drain + drained retune)", MetricLiveDrains, got)
	}
}

// TestSetQueueCapGrowShrink pins the soft-capacity semantics: raising
// the cap grows the ring on the pushes that need it, to at most twice
// its occupancy (preserving FIFO order), shrinking below occupancy
// refuses new pushes without dropping anything until the queue drains
// under the new limit, and invalid caps are rejected.
func TestSetQueueCapGrowShrink(t *testing.T) {
	d, err := New(Config{N: 1, QueueCap: 2, Shed: ShedReject})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(id int64) Outcome { return d.Submit(Request{ID: id, Demand: 1}).Outcome }
	if submit(1) != Routed || submit(2) != Routed {
		t.Fatal("seed pushes not routed")
	}
	if got := submit(3); got != Shed {
		t.Fatalf("push at cap: outcome %v, want Shed", got)
	}
	if err := d.SetQueueCap(4); err != nil {
		t.Fatal(err)
	}
	if submit(4) != Routed || submit(5) != Routed {
		t.Fatal("pushes after raise not routed (lazy ring grow)")
	}
	if got := submit(6); got != Shed {
		t.Fatalf("push at raised cap: outcome %v, want Shed", got)
	}
	if err := d.SetQueueCap(1); err != nil {
		t.Fatal(err)
	}
	if got := submit(7); got != Shed {
		t.Fatalf("push after shrink below occupancy: outcome %v, want Shed", got)
	}
	// Drain in FIFO order — nothing was dropped by the shrink (the
	// queue holds IDs 1, 2, 4, 5; 3 and 6 were shed at admission) —
	// with pushes still refused until occupancy falls under the new
	// limit.
	for i, want := range []int64{1, 2, 4} {
		r, ok := d.Complete(0, 0)
		if !ok || r.ID != want {
			t.Fatalf("Complete = (%v, %v), want request %d", r.ID, ok, want)
		}
		if got := submit(100 + int64(i)); got != Shed {
			t.Fatalf("push with %d queued under cap 1: outcome %v, want Shed", 3-i, got)
		}
	}
	if r, ok := d.Complete(0, 0); !ok || r.ID != 5 {
		t.Fatalf("final Complete = (%v, %v), want request 5", r.ID, ok)
	}
	if got := submit(200); got != Routed {
		t.Fatalf("push on drained queue under new cap: outcome %v, want Routed", got)
	}
	if err := d.SetQueueCap(0); err == nil {
		t.Fatal("SetQueueCap(0) accepted")
	}
	ds, err := New(Config{N: 1, QueueCap: 8, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetQueueCap(2); err == nil {
		t.Fatal("SetQueueCap below shard count accepted")
	}
	if err := ds.SetQueueCap(6); err != nil {
		t.Fatalf("valid sharded cap reload rejected: %v", err)
	}

	// A raise allocates nothing up front: nine requests queued after a
	// raise to 4,000,000 hold a ring of at most 18 slots, not 4,000,000
	// (128 MB).
	if err := d.SetQueueCap(4000000); err != nil {
		t.Fatal(err)
	}
	for id := int64(300); id < 308; id++ { // request 200 is still queued
		if got := submit(id); got != Routed {
			t.Fatalf("push %d after a large raise: outcome %v, want Routed", id, got)
		}
	}
	if got := len(d.shards[0].queues[0].buf); got > 18 {
		t.Fatalf("ring holds %d slots for 9 queued requests, want at most 18", got)
	}
	for _, want := range []int64{200, 300, 301} {
		if r, ok := d.Complete(0, 0); !ok || r.ID != want {
			t.Fatalf("Complete after a regrow = (%v, %v), want request %d", r.ID, ok, want)
		}
	}
}
