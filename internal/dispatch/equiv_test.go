package dispatch

import (
	"bytes"
	"math"
	"net/http"
	"reflect"
	"testing"

	"dolbie/internal/metrics"
)

// TestShards1ClosedLoopEquivalence is the PR's central correctness
// argument: with Shards=1 the sharded dispatcher must reproduce the
// pre-shard single-lock implementation bit for bit through the whole
// closed loop. Both data planes are driven by the identical serving
// engine over the same seeded trace, and every observable is compared
// exactly: the fed-back per-round cost sequence l_{i,t}, the final
// totals (per-worker routed counts, shed, spilled, blocked, completed),
// and the summary result. Any divergence — a different WRR pick, a
// different shed decision, a float rounding difference — fails the
// test.
func TestShards1ClosedLoopEquivalence(t *testing.T) {
	for _, shed := range []ShedPolicy{ShedReject, ShedBlock, ShedSpill} {
		for _, policy := range []ControlPolicy{PolicyDOLBIE, PolicyWRR, PolicyJSQ, PolicyDGD} {
			cfg := DefaultServeConfig()
			cfg.Rounds = 60
			cfg.Seed = 7
			cfg.Shed = shed
			cfg.Policy = policy
			cfg.Shards = 1

			var shardedCosts [][]float64
			cfg.observeRound = func(round int, costs []float64) {
				shardedCosts = append(shardedCosts, append([]float64(nil), costs...))
			}
			sharded, err := Serve(cfg)
			if err != nil {
				t.Fatalf("%v/%v: sharded serve: %v", shed, policy, err)
			}

			var refCosts [][]float64
			cfg.observeRound = func(round int, costs []float64) {
				refCosts = append(refCosts, append([]float64(nil), costs...))
			}
			route := RouteWeighted
			if policy == PolicyJSQ {
				route = RouteJSQ
			}
			rd, err := newRefDispatcher(Config{N: cfg.N, QueueCap: cfg.QueueCap, Shed: shed, Route: route})
			if err != nil {
				t.Fatalf("%v/%v: reference dispatcher: %v", shed, policy, err)
			}
			ref, err := serveWith(cfg, rd)
			if err != nil {
				t.Fatalf("%v/%v: reference serve: %v", shed, policy, err)
			}

			if !reflect.DeepEqual(sharded, ref) {
				t.Errorf("%v/%v: results diverge:\nsharded:  %+v\nreference: %+v", shed, policy, sharded, ref)
			}
			if len(shardedCosts) != len(refCosts) {
				t.Fatalf("%v/%v: %d vs %d observed rounds", shed, policy, len(shardedCosts), len(refCosts))
			}
			for r := range shardedCosts {
				for i := range shardedCosts[r] {
					if shardedCosts[r][i] != refCosts[r][i] {
						t.Fatalf("%v/%v: round %d worker %d: fed-back cost %v != reference %v",
							shed, policy, r, i, shardedCosts[r][i], refCosts[r][i])
					}
				}
			}
		}
	}
}

// TestShards1TraceEquivalence drives both implementations directly with
// the same seeded open-loop trace (no serving engine in between) and
// compares every admission verdict, every completion, and the final
// counters, including the metrics exposition text of two identically
// scraped registries.
func TestShards1TraceEquivalence(t *testing.T) {
	const n, queueCap, requests = 3, 8, 5000

	regS := metrics.NewRegistry()
	regR := metrics.NewRegistry()
	ds, err := New(Config{N: n, QueueCap: queueCap, Shards: 1, Shed: ShedSpill, Route: RouteWeighted, Metrics: regS})
	if err != nil {
		t.Fatal(err)
	}
	dr, err := newRefDispatcher(Config{N: n, QueueCap: queueCap, Shed: ShedSpill, Route: RouteWeighted, Metrics: regR})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetWeights([]float64{0.6, 0.3, 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := dr.SetWeights([]float64{0.6, 0.3, 0.1}); err != nil {
		t.Fatal(err)
	}

	gen, err := NewGenerator(50, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range pregenerate(gen, requests) {
		vs, vr := ds.Submit(r), dr.Submit(r)
		if vs != vr {
			t.Fatalf("request %d: verdict %+v != reference %+v", i, vs, vr)
		}
		if i%3 == 2 {
			w := i % n
			rs, oks := ds.Complete(w, r.Arrival)
			rr, okr := dr.Complete(w, r.Arrival)
			if oks != okr || rs != rr {
				t.Fatalf("complete %d: %+v,%v != reference %+v,%v", i, rs, oks, rr, okr)
			}
		}
	}

	ts, tr := ds.Totals(), dr.Totals()
	if ts.Arrivals != tr.Arrivals || ts.Shed != tr.Shed || ts.Spilled != tr.Spilled ||
		ts.Blocked != tr.Blocked || ts.Completed != tr.Completed {
		t.Errorf("totals diverge: %+v vs %+v", ts, tr)
	}
	for w := range ts.Routed {
		if ts.Routed[w] != tr.Routed[w] {
			t.Errorf("worker %d: routed %d != reference %d", w, ts.Routed[w], tr.Routed[w])
		}
	}
	for w := 0; w < n; w++ {
		hs, oks := ds.Head(w)
		hr, okr := dr.Head(w)
		if oks != okr || hs != hr {
			t.Errorf("head %d: %+v,%v != reference %+v,%v", w, hs, oks, hr, okr)
		}
	}

	// Both registries must expose the same values for the series the
	// reference path knows about (the sharded side additionally exports
	// shard series, which the reference predates).
	var bs, br bytes.Buffer
	if err := regS.WriteText(&bs); err != nil {
		t.Fatal(err)
	}
	if err := regR.WriteText(&br); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{MetricArrivals, MetricSpilled, MetricBlocked,
		MetricCompletionLatency + "_count", MetricCompletionLatency + "_sum"} {
		vs, vr := scrapeValue(t, bs.String(), name), scrapeValue(t, br.String(), name)
		if vs != vr {
			t.Errorf("scrape of %s: %v != reference %v", name, vs, vr)
		}
	}
}

// TestIngestEncodingMatchesEncodingJSON pins the ingest handler's
// suffix-table verdict encoder to the reflective encoding the pre-shard
// path used: the two byte streams must be identical for every outcome,
// every worker slot including the -1 refusal sentinel, and IDs that
// cross the sign, digit-count boundaries and the int64 limit.
func TestIngestEncodingMatchesEncodingJSON(t *testing.T) {
	const n = 5
	enc := newVerdictEncoder(n)
	for _, o := range []Outcome{Routed, Spilled, Shed, Blocked, Throttled} {
		for w := -1; w < n; w++ {
			for _, id := range []int64{-5, 0, 9, 10, 99, 100, 9_000_000_000, math.MaxInt64} {
				var want bytes.Buffer
				refEncodeVerdict(&want, id, o.String(), w)
				if got := enc.append(nil, id, Verdict{Outcome: o, Worker: w}); !bytes.Equal(got, want.Bytes()) {
					t.Errorf("verdictEncoder.append(%d, %v, %d) = %q, want %q", id, o, w, got, want.Bytes())
				}
			}
		}
	}
}

// TestVerdictEncoderMatchesAppendIngestResponse pins the verdict
// encoder as the ingest handler drives it (the name dates from the
// hand-written appendIngestResponse it replaced): every response body
// must equal refEncodeVerdict for the handler's own request ID. The
// scripted admission cycles all 30 outcome × worker-slot pairs, and the
// handler's sequential IDs cross the 9→10 and 99→100 digit carries, so
// the pooled response buffer is reused across bodies of every length.
func TestVerdictEncoderMatchesAppendIngestResponse(t *testing.T) {
	const n, requests = 5, 120
	d, err := New(Config{N: n, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	outcomes := []Outcome{Routed, Spilled, Shed, Blocked, Throttled}
	var ids []int64
	var verdicts []Verdict
	h := ingestCore(d, func(r Request) Verdict {
		i := len(ids)
		v := Verdict{Outcome: outcomes[i%len(outcomes)], Worker: i%(n+1) - 1}
		ids = append(ids, r.ID)
		verdicts = append(verdicts, v)
		return v
	}, func() float64 { return 0 })
	for i := 0; i < requests; i++ {
		got := ingestStatus(t, h, http.MethodPost, "/ingest").Body.Bytes()
		if len(ids) != i+1 || ids[i] != int64(i+1) {
			t.Fatalf("request %d: handler assigned IDs %v, want sequential from 1", i, ids)
		}
		var want bytes.Buffer
		refEncodeVerdict(&want, ids[i], verdicts[i].Outcome.String(), verdicts[i].Worker)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("ingest body for ID %d (%v, worker %d) = %q, want %q",
				ids[i], verdicts[i].Outcome, verdicts[i].Worker, got, want.Bytes())
		}
	}
}
