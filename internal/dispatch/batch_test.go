package dispatch

import (
	"fmt"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dolbie/internal/metrics"
)

// TestBatchedAdmissionEquivalence is the batched-admission correctness
// core: over 20 seeds × shards {1, 8} × batch {16, 64} × the three shed
// policies, a batched dispatcher driven through SubmitBatch must
// produce the exact verdict sequence (hence the same multiset, totals,
// conservation split, and per-shard capacity behaviour) as a BatchSize=1
// dispatcher fed the same requests through the same submitter-sticky
// path, with completions aligned to the shared 64-request block
// boundaries. At one shard it must also match the single-lock reference
// fed the same requests through Submit, verdict for verdict and
// completion for completion: the reference shares no admission code
// with the dispatcher, so it is an independent oracle for the one
// admission body both SubmitBatch and Submit run.
func TestBatchedAdmissionEquivalence(t *testing.T) {
	const n, queueCap, requests, block = 4, 64, 4096, 64
	for seed := int64(1); seed <= 20; seed++ {
		for _, shards := range []int{1, 8} {
			for _, batch := range []int{16, 64} {
				for _, shed := range []ShedPolicy{ShedReject, ShedBlock, ShedSpill} {
					cfgB := Config{N: n, QueueCap: queueCap, Shards: shards, BatchSize: batch, Shed: shed, Route: RouteWeighted}
					cfgS := cfgB
					cfgS.BatchSize = 1
					db, err := New(cfgB)
					if err != nil {
						t.Fatal(err)
					}
					ds, err := New(cfgS)
					if err != nil {
						t.Fatal(err)
					}
					var ref *refDispatcher // single-lock oracle, 1-shard only
					if shards == 1 {
						if ref, err = newRefDispatcher(cfgS); err != nil {
							t.Fatal(err)
						}
					}
					gen, err := NewGenerator(1000, 1, seed)
					if err != nil {
						t.Fatal(err)
					}
					trace := pregenerate(gen, requests)
					subB, subS := db.NewSubmitter(), ds.NewSubmitter()
					vb := make([]Verdict, 0, block)
					vsq := make([]Verdict, 0, block)
					worker := 0
					for at := 0; at < len(trace); at += block {
						chunk := trace[at : at+block]
						vb = subB.SubmitBatch(chunk, vb[:0])
						vsq = subS.SubmitBatch(chunk, vsq[:0])
						for i := range vb {
							if vb[i] != vsq[i] {
								t.Fatalf("seed %d shards %d batch %d %v: request %d: batched verdict %+v != sequential %+v",
									seed, shards, batch, shed, at+i, vb[i], vsq[i])
							}
						}
						if ref != nil {
							for i, r := range chunk {
								if v := ref.Submit(r); v != vb[i] {
									t.Fatalf("seed %d batch %d %v: request %d: batched verdict %+v != reference %+v",
										seed, batch, shed, at+i, vb[i], v)
								}
							}
						}
						// Completions only at block boundaries, identically on
						// every twin, so the queue states stay comparable.
						for c := 0; c < block/4; c++ {
							arr := chunk[len(chunk)-1].Arrival
							rb, okb := db.Complete(worker, arr)
							rs, oks := ds.Complete(worker, arr)
							if okb != oks || rb != rs {
								t.Fatalf("seed %d shards %d batch %d %v: complete diverged: %+v,%v != %+v,%v",
									seed, shards, batch, shed, rb, okb, rs, oks)
							}
							if ref != nil {
								if rr, okr := ref.Complete(worker, arr); okr != okb || rr != rb {
									t.Fatalf("seed %d batch %d %v: complete %+v,%v != reference %+v,%v",
										seed, batch, shed, rb, okb, rr, okr)
								}
							}
							worker = (worker + 1) % n
						}
					}
					tb, ts := db.Totals(), ds.Totals()
					if tb.Arrivals != ts.Arrivals || tb.Shed != ts.Shed || tb.Spilled != ts.Spilled ||
						tb.Blocked != ts.Blocked || tb.Completed != ts.Completed {
						t.Fatalf("seed %d shards %d batch %d %v: totals diverge: %+v vs %+v", seed, shards, batch, shed, tb, ts)
					}
					var routed int64
					for w := range tb.Routed {
						if tb.Routed[w] != ts.Routed[w] {
							t.Fatalf("seed %d: worker %d routed %d != %d", seed, w, tb.Routed[w], ts.Routed[w])
						}
						routed += tb.Routed[w]
					}
					if tb.Arrivals != routed+tb.Shed+tb.Blocked {
						t.Fatalf("seed %d shards %d batch %d %v: conservation violated: %+v", seed, shards, batch, shed, tb)
					}
					if ref != nil {
						if tr := ref.Totals(); !reflect.DeepEqual(tb, tr) {
							t.Fatalf("seed %d batch %d %v: totals %+v != reference %+v", seed, batch, shed, tb, tr)
						}
					}
					for w, depth := range db.Depths() {
						if got := ds.Depths()[w]; got != depth {
							t.Fatalf("seed %d: worker %d depth %d != sequential %d", seed, w, depth, got)
						}
					}
					for w, b := range db.Backlog() {
						if got := ds.Backlog()[w]; got != b {
							t.Fatalf("seed %d: worker %d backlog %v != sequential %v", seed, w, b, got)
						}
					}
				}
			}
		}
	}
}

// TestBatchedAdmissionEquivalenceGeneralPath covers the chunk shapes
// the benchmarked single-tenant chunk does not take — multiple tenants
// in runs of mixed lengths, a rate contract, and JSQ routing — through
// the same admission body. The batched dispatcher must match the
// BatchSize=1 twin verdict for verdict at one and two shards, and at
// one shard also the single-lock reference fed through Submit, verdict
// for verdict, completion for completion and in its per-tenant totals.
func TestBatchedAdmissionEquivalenceGeneralPath(t *testing.T) {
	// Silver's contract sits below its offered ~1,000 requests/s, so it
	// throttles at one shard as well as at two.
	tenants := []TenantConfig{
		{Name: "gold", Weight: 2, Priority: PriorityGold, Shed: ShedReject},
		{Name: "silver", Weight: 1, Priority: PrioritySilver, Shed: ShedSpill, RateLimit: 250},
	}
	for _, shards := range []int{1, 2} {
		for _, route := range []RoutePolicy{RouteWeighted, RouteJSQ} {
			cfgB := Config{N: 3, QueueCap: 24, Shards: shards, BatchSize: 16, Shed: ShedReject, Route: route, Tenants: tenants}
			cfgS := cfgB
			cfgS.BatchSize = 1
			db, err := New(cfgB)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := New(cfgS)
			if err != nil {
				t.Fatal(err)
			}
			var ref *refDispatcher // single-lock oracle, 1-shard only
			if shards == 1 {
				if ref, err = newRefDispatcher(cfgS); err != nil {
					t.Fatal(err)
				}
			}
			gen, err := NewGenerator(2000, 1, 3)
			if err != nil {
				t.Fatal(err)
			}
			trace := pregenerate(gen, 2048)
			for i := range trace {
				// Tenant runs of lengths 1, 2, 3 and 6, some crossing chunk
				// boundaries.
				trace[i].Tenant = (i/3 + i/7) % 2
			}
			subB, subS := db.NewSubmitter(), ds.NewSubmitter()
			vb := make([]Verdict, 0, 64)
			vsq := make([]Verdict, 0, 64)
			worker := 0
			for at := 0; at < len(trace); at += 64 {
				chunk := trace[at : at+64]
				vb = subB.SubmitBatch(chunk, vb[:0])
				vsq = subS.SubmitBatch(chunk, vsq[:0])
				for i := range vb {
					if vb[i] != vsq[i] {
						t.Fatalf("shards %d route %v request %d: batched %+v != sequential %+v", shards, route, at+i, vb[i], vsq[i])
					}
				}
				if ref != nil {
					for i, r := range chunk {
						if v := ref.Submit(r); v != vb[i] {
							t.Fatalf("route %v request %d: batched %+v != reference %+v", route, at+i, vb[i], v)
						}
					}
				}
				arr := chunk[len(chunk)-1].Arrival
				for c := 0; c < 16; c++ {
					rb, okb := db.Complete(worker, arr)
					rs, oks := ds.Complete(worker, arr)
					if okb != oks || rb != rs {
						t.Fatalf("shards %d route %v: complete diverged", shards, route)
					}
					if ref != nil {
						if rr, okr := ref.Complete(worker, arr); okr != okb || rr != rb {
							t.Fatalf("route %v: complete %+v,%v != reference %+v,%v", route, rb, okb, rr, okr)
						}
					}
					worker = (worker + 1) % 3
				}
			}
			for k, tot := range db.TenantTotals() {
				if want := ds.TenantTotals()[k]; tot != want {
					t.Fatalf("shards %d route %v tenant %d: totals %+v != sequential %+v", shards, route, k, tot, want)
				}
				if ref != nil {
					if want := ref.TenantTotals()[k]; tot != want {
						t.Fatalf("route %v tenant %d: totals %+v != reference %+v", route, k, tot, want)
					}
				}
				if tot.Arrivals != tot.Routed+tot.Shed+tot.Throttled+tot.Blocked {
					t.Fatalf("shards %d route %v tenant %d: conservation violated: %+v", shards, route, k, tot)
				}
			}
		}
	}
}

// TestCompleteBatchMatchesSequentialCompletes pins the batched
// completion path to n sequential Complete calls: same pop order, same
// counters, same early stop on empty queues.
func TestCompleteBatchMatchesSequentialCompletes(t *testing.T) {
	mk := func() *Dispatcher {
		d, err := New(Config{N: 3, QueueCap: 32, Shards: 4, Shed: ShedReject, Route: RouteWeighted})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	db, ds := mk(), mk()
	gen, err := NewGenerator(100, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range pregenerate(gen, 80) {
		if vb, vs := db.Submit(r), ds.Submit(r); vb != vs {
			t.Fatalf("twin setup diverged: %+v vs %+v", vb, vs)
		}
	}
	for w := 0; w < 3; w++ {
		// Ask for more completions than the worker holds: the batch must
		// pop exactly as many as sequential Completes would, oldest first.
		got := db.CompleteBatch(w, 40, 100)
		want := 0
		for {
			rs, ok := ds.Complete(w, 100)
			if !ok {
				break
			}
			want++
			_ = rs
		}
		if got != want {
			t.Fatalf("worker %d: CompleteBatch popped %d, sequential popped %d", w, got, want)
		}
	}
	tb, ts := db.Totals(), ds.Totals()
	if tb.Completed != ts.Completed || tb.Arrivals != ts.Arrivals {
		t.Fatalf("totals diverge after batched completions: %+v vs %+v", tb, ts)
	}
	if d := db.Depth(); d != 0 {
		t.Fatalf("CompleteBatch left depth %d, want 0", d)
	}
	if got := db.CompleteBatch(0, 4, 100); got != 0 {
		t.Fatalf("CompleteBatch on empty queues popped %d", got)
	}
	if got := db.CompleteBatch(-1, 4, 100); got != 0 {
		t.Fatal("CompleteBatch accepted an invalid worker")
	}
	if got := db.CompleteBatch(0, 0, 100); got != 0 {
		t.Fatal("CompleteBatch accepted n = 0")
	}
}

// TestSubmitterAffinityAndBatchStats checks the submitter-sticky shard
// machinery: homes are assigned round-robin, an uncontended submitter
// always hits its home shard, a held home mutex turns into a recorded
// affinity miss (the chunk falls over to a free shard instead of
// queueing), and BatchStats tallies batches and admissions exactly.
func TestSubmitterAffinityAndBatchStats(t *testing.T) {
	d, err := New(Config{N: 2, QueueCap: 8, Shards: 4, BatchSize: 8, Shed: ShedReject, Route: RouteWeighted})
	if err != nil {
		t.Fatal(err)
	}
	homes := make(map[int]bool)
	subs := make([]*Submitter, 4)
	for i := range subs {
		subs[i] = d.NewSubmitter()
		homes[subs[i].home] = true
	}
	if len(homes) != 4 {
		t.Fatalf("4 submitters share %d home shards, want 4 distinct", len(homes))
	}
	if d.NewSubmitter().home != subs[0].home {
		t.Error("home assignment did not wrap round-robin")
	}

	rs := make([]Request, 20)
	for i := range rs {
		rs[i] = Request{ID: int64(i + 1), Arrival: float64(i), Demand: 1}
	}
	out := subs[0].SubmitBatch(rs, nil)
	if len(out) != len(rs) {
		t.Fatalf("SubmitBatch returned %d verdicts for %d requests", len(out), len(rs))
	}
	st := d.BatchStats()
	if st.Batches != 3 || st.Admitted != 20 { // 20 requests / batch 8 = chunks of 8+8+4
		t.Fatalf("BatchStats = %+v, want 3 batches / 20 admitted", st)
	}
	if st.AffinityHits != 3 || st.AffinityMisses != 0 {
		t.Fatalf("uncontended run recorded %d hits / %d misses, want 3/0", st.AffinityHits, st.AffinityMisses)
	}

	// Hold the submitter's home shard: the next chunk must fall over to
	// another shard and record a miss rather than block.
	home := d.shards[subs[0].home]
	home.mu.Lock()
	subs[0].SubmitBatch(rs[:4], nil)
	home.mu.Unlock()
	st = d.BatchStats()
	if st.AffinityMisses != 1 {
		t.Fatalf("contended home recorded %d misses, want 1 (stats %+v)", st.AffinityMisses, st)
	}
}

// TestBatchedMidStormScrapeConservation is the batched mid-storm soak:
// submitter goroutines drive SubmitBatch chunks while completers drain
// through CompleteBatch, SetWeights retune epochs land concurrently,
// and scraper goroutines assert the aggregate and per-tenant
// conservation laws on every single mid-storm scrape. At quiescence the
// batch metric series must agree exactly with BatchStats. Run under
// -race (the Makefile's test target does) this is also the data race
// proof for the whole batched path, including the per-worker
// completion locks: in the "general" case every chunk alternates
// between two tenants, one with a rate contract, so each chunk is many
// one-request tenant runs; in the "fast_path" case a single gold tenant
// without a contract admits each chunk as one run, the shape the
// admit_batch benchmark times.
func TestBatchedMidStormScrapeConservation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tenants []TenantConfig
	}{
		{"general", []TenantConfig{
			{Name: "gold", Weight: 2, Priority: PriorityGold, Shed: ShedReject},
			{Name: "silver", Weight: 1, Priority: PrioritySilver, Shed: ShedSpill, RateLimit: 50},
		}},
		{"fast_path", []TenantConfig{
			{Name: "gold", Weight: 1, Priority: PriorityGold, Shed: ShedReject},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { batchedMidStorm(t, tc.tenants) })
	}
}

// batchedMidStorm runs the mid-storm soak over one tenant configuration.
func batchedMidStorm(t *testing.T, tenants []TenantConfig) {
	const (
		n          = 4
		shards     = 4
		submitters = 4
		scrapers   = 2
		chunks     = 60
		chunk      = 32
	)
	reg := metrics.NewRegistry()
	d, err := New(Config{N: n, QueueCap: 32, Shards: shards, BatchSize: 16, Shed: ShedReject, Metrics: reg, Tenants: tenants})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(metrics.NewMux(reg))
	defer srv.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := srv.Client().Get(srv.URL + "/metrics")
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("scrape read: %v", err)
					return
				}
				samples := parseScrape(t, string(body))
				checkScrapeConservation(t, samples, n, shards)
				checkTenantScrapeConservation(t, samples, tenants)
				if samples[MetricBatchAdmissions] < samples[MetricBatchBatches] {
					t.Errorf("batch admissions %v below batch count %v", samples[MetricBatchAdmissions], samples[MetricBatchBatches])
				}
			}
		}()
	}
	// Retuner: weight epochs must land on admission boundaries even while
	// chunks commit concurrently.
	retuneDone := make(chan struct{})
	go func() {
		defer close(retuneDone)
		for i := 0; i < 40; i++ {
			w := make([]float64, n)
			for j := range w {
				w[j] = 1 + float64((i+j)%3)
			}
			if err := d.SetWeights(w); err != nil {
				t.Errorf("SetWeights: %v", err)
				return
			}
		}
	}()
	var loadWG sync.WaitGroup
	for g := 0; g < submitters; g++ {
		loadWG.Add(1)
		go func(g int) {
			defer loadWG.Done()
			sub := d.NewSubmitter()
			verdicts := make([]Verdict, 0, chunk)
			rs := make([]Request, chunk)
			for c := 0; c < chunks; c++ {
				base := int64(g*chunks*chunk + c*chunk)
				for i := range rs {
					rs[i] = Request{ID: base + int64(i), Arrival: float64(c), Demand: 1, Tenant: (g + i) % len(tenants)}
				}
				verdicts = sub.SubmitBatch(rs, verdicts[:0])
				d.CompleteBatch(c%n, len(verdicts)/4, float64(c))
			}
		}(g)
	}
	loadWG.Wait()
	<-retuneDone
	close(stop)
	wg.Wait()

	// Quiesced: exported batch series must agree exactly with BatchStats.
	st := d.BatchStats()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples := parseScrape(t, sb.String())
	for _, c := range []struct {
		series string
		want   int64
	}{
		{MetricBatchBatches, st.Batches},
		{MetricBatchAdmissions, st.Admitted},
		{MetricBatchAffinityHits, st.AffinityHits},
		{MetricBatchAffinityMisses, st.AffinityMisses},
	} {
		if got := samples[c.series]; got != float64(c.want) {
			t.Errorf("%s = %v, BatchStats says %d", c.series, got, c.want)
		}
	}
	if st.Admitted != int64(submitters*chunks*chunk) {
		t.Errorf("BatchStats.Admitted = %d, want %d", st.Admitted, submitters*chunks*chunk)
	}
	tot := d.Totals()
	var routed int64
	for _, r := range tot.Routed {
		routed += r
	}
	if tot.Arrivals != routed+tot.Shed+tot.Blocked {
		t.Errorf("conservation violated at quiescence: %+v", tot)
	}
}

// TestBatchedGracefulDrainConservation pins the graceful-drain
// invariant under K > 1: flipping the drain gate mid-storm while
// SubmitBatch submitters are live must refuse every later admission as
// Blocked without losing a single accepted request — after the drain
// empties the queues, completed == routed exactly and the conservation
// law closes. The submitters wait at a barrier after chunk 10 until the
// gate has flipped, so the drain always meets live submissions and the
// number of refusals is exact.
func TestBatchedGracefulDrainConservation(t *testing.T) {
	const n, submitters, chunk, chunks, gateAfter = 4, 4, 16, 50, 10
	d, err := New(Config{N: n, QueueCap: 64, Shards: 4, BatchSize: 16, Shed: ShedReject, Route: RouteWeighted})
	if err != nil {
		t.Fatal(err)
	}
	var (
		loadWG  sync.WaitGroup
		atGate  sync.WaitGroup
		gateSet = make(chan struct{})
	)
	atGate.Add(submitters)
	for g := 0; g < submitters; g++ {
		loadWG.Add(1)
		go func(g int) {
			defer loadWG.Done()
			sub := d.NewSubmitter()
			verdicts := make([]Verdict, 0, chunk)
			rs := make([]Request, chunk)
			for c := 0; c < chunks; c++ {
				base := int64(g*chunks*chunk + c*chunk)
				for i := range rs {
					rs[i] = Request{ID: base + int64(i), Arrival: float64(c), Demand: 1}
				}
				verdicts = sub.SubmitBatch(rs, verdicts[:0])
				if c == gateAfter {
					atGate.Done()
					<-gateSet
				}
			}
		}(g)
	}
	atGate.Wait()
	d.SetDraining(true)
	close(gateSet)
	if !d.Draining() {
		t.Fatal("drain gate did not latch")
	}
	loadWG.Wait()

	// Every post-gate submission must have been refused as Blocked, and
	// draining the queues must recover every accepted request.
	for w := 0; w < n; w++ {
		d.CompleteBatch(w, 1<<20, 1000)
	}
	if depth := d.Depth(); depth != 0 {
		t.Fatalf("depth %d after full drain, want 0", depth)
	}
	tot := d.Totals()
	var routed int64
	for _, r := range tot.Routed {
		routed += r
	}
	if tot.Blocked == 0 {
		t.Error("drain gate never blocked a submission — flip it earlier")
	}
	if want := int64(submitters * (chunks - gateAfter - 1) * chunk); tot.Blocked != want {
		t.Errorf("drain blocked %d submissions, want every post-gate one: %d", tot.Blocked, want)
	}
	if tot.Completed != routed {
		t.Errorf("accepted-request loss through drain: routed %d, completed %d", routed, tot.Completed)
	}
	if tot.Arrivals != routed+tot.Shed+tot.Blocked {
		t.Errorf("conservation violated through drain: %+v", tot)
	}
	// The gate reopens cleanly.
	d.SetDraining(false)
	if v := d.Submit(Request{ID: 1 << 40, Demand: 1}); v.Outcome != Routed {
		t.Errorf("post-drain submit got %v, want Routed", v.Outcome)
	}
}

// TestServeBatchedEngine covers the serving engine's batched admission
// mode: a batched run must echo its batch width, conserve requests
// exactly (every arrival completed, shed, blocked or still queued, read
// from the dispatcher's own metric series), and batch for real (more
// than one admission per critical section); BatchSize <= 1 must stay
// bit-for-bit identical to the unbatched default; and the two rejected
// configurations — ShedBlock under batching, and a batched run on the
// pre-shard reference plane — must fail loudly rather than mis-serve.
func TestServeBatchedEngine(t *testing.T) {
	cfg := DefaultServeConfig()
	cfg.Rounds = 40
	cfg.Seed = 5
	cfg.Shards = 2
	cfg.BatchSize = 16
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	res, err := Serve(cfg)
	if err != nil {
		t.Fatalf("batched serve: %v", err)
	}
	if res.BatchSize != 16 {
		t.Errorf("result echoes BatchSize %d, want 16", res.BatchSize)
	}
	if res.Arrivals == 0 {
		t.Fatal("batched serve admitted nothing")
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	var queued int64
	for w := 0; w < cfg.N; w++ {
		queued += int64(scrapeValue(t, text, fmt.Sprintf("%s{worker=\"%d\"}", MetricQueueDepth, w)))
	}
	if res.Arrivals != res.Completed+res.ShedCount+res.Blocked+queued {
		t.Errorf("batched serve lost requests: %d arrivals != %d completed + %d shed + %d blocked + %d queued",
			res.Arrivals, res.Completed, res.ShedCount, res.Blocked, queued)
	}
	batches, admitted := scrapeValue(t, text, MetricBatchBatches), scrapeValue(t, text, MetricBatchAdmissions)
	if batches == 0 || admitted/batches <= 1 {
		t.Errorf("realized batch width %v/%v, want above 1", admitted, batches)
	}

	// BatchSize 1 and the unset default must produce identical results.
	cfg1 := DefaultServeConfig()
	cfg1.Rounds = 40
	cfg1.Seed = 5
	cfg1.Shards = 2
	res0, err := Serve(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg1.BatchSize = 1
	res1, err := Serve(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res0, res1) {
		t.Errorf("BatchSize=1 diverges from default:\n%+v\n%+v", res0, res1)
	}

	bad := DefaultServeConfig()
	bad.BatchSize = 8
	bad.Shed = ShedBlock
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "ShedBlock") {
		t.Errorf("ShedBlock under batching validated: %v", err)
	}
	badTenant := DefaultServeConfig()
	badTenant.BatchSize = 8
	badTenant.Tenants = []TenantConfig{{Name: "b", Weight: 1, Rate: 100, DemandMean: 1, Shed: ShedBlock}}
	if err := badTenant.Validate(); err == nil || !strings.Contains(err.Error(), "ShedBlock") {
		t.Errorf("tenant ShedBlock under batching validated: %v", err)
	}

	ref, err := newRefDispatcher(Config{N: cfg.N, QueueCap: cfg.QueueCap, Shed: cfg.Shed, Route: RouteWeighted})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serveWith(cfg, ref); err == nil || !strings.Contains(err.Error(), "sharded dispatcher") {
		t.Errorf("batched serve on the reference plane did not fail: %v", err)
	}
}

// TestConfigBatchSizeValidation pins the Config-level knob: negatives
// are rejected, zero defaults to one, and the resolved batch size is
// what SubmitBatch chunks by.
func TestConfigBatchSizeValidation(t *testing.T) {
	if _, err := New(Config{N: 1, QueueCap: 1, BatchSize: -1}); err == nil {
		t.Error("negative BatchSize validated")
	}
	if got := (Config{BatchSize: 0}).batchSize(); got != 1 {
		t.Errorf("batchSize() = %d for zero, want 1", got)
	}
	if got := (Config{BatchSize: 64}).batchSize(); got != 64 {
		t.Errorf("batchSize() = %d, want 64", got)
	}
}
