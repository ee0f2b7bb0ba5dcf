package dispatch

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"dolbie/internal/optimum"
)

// FuzzDispatcherAdmission drives a dispatcher through an arbitrary
// interleaving of submissions and completions and checks the admission
// invariants that everything downstream (metrics consistency, the serve
// loop's virtual clock) relies on: the conservation law
// Arrivals == sum(Routed) + Shed + Blocked, queue depths bounded by the
// configured capacity, and Backlog matching the work actually enqueued.
// The shard count, admission batch size and tenancy are fuzzed
// alongside the policies. batch > 1 drives the submissions through a
// submitter-sticky SubmitBatch with a pending-flush buffer; tenancy
// configures 0–3 tenants, each with its own shed policy and priority
// class and the first with a rate contract, and each request's tenant
// comes from its op byte (values past the last tenant fold to tenant
// 0), so chunks hold tenant runs of every length. At one shard the
// single-lock reference, fed the same requests through Submit, must
// agree verdict for verdict, completion for completion and in every
// total. Every input is replayed a second time as concurrent offered
// load (several submitting goroutines racing batched completions)
// under which the conservation and capacity invariants must still hold
// at quiescence — the strict depth/backlog bookkeeping is
// sequential-only, since under concurrency the interleaving of verdicts
// is not deterministic. Runs with the seed corpus under plain
// `go test`; explore further with `go test -fuzz=FuzzDispatcherAdmission`.
func FuzzDispatcherAdmission(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(0), uint8(0), uint8(0), uint8(1), uint8(0), uint8(0), []byte{0, 1, 2, 3, 4, 5})
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(3), uint8(2), uint8(1), uint8(0), []byte{7, 7, 7, 3, 3})
	f.Add(uint8(8), uint8(4), uint8(2), uint8(0), uint8(7), uint8(3), uint8(2), uint8(0), []byte{255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add(uint8(4), uint8(15), uint8(0), uint8(0), uint8(3), uint8(3), uint8(3), uint8(0), []byte{0, 4, 8, 12, 0, 4, 8, 3, 0, 4, 8, 12, 16, 20, 24, 28, 32, 3, 7})
	f.Add(uint8(2), uint8(7), uint8(2), uint8(0), uint8(0), uint8(1), uint8(2), uint8(3+4*1+16*2), []byte{0, 32, 64, 96, 0, 32, 3, 128, 160, 192, 224, 0, 0, 32, 7, 64, 64, 1, 33, 65, 97, 11})
	f.Add(uint8(3), uint8(5), uint8(1), uint8(1), uint8(0), uint8(0), uint8(1), uint8(2+16*1), []byte{0, 32, 0, 32, 0, 32, 3, 7, 0, 0, 0, 32, 32, 32, 11})
	f.Fuzz(func(t *testing.T, n, queueCap, shed, route, shards, par, batch, tenancy uint8, ops []byte) {
		cfg := Config{
			N:         int(n%8) + 1,
			QueueCap:  int(queueCap%16) + 1,
			Shed:      ShedPolicy(int(shed) % 3),
			Route:     RoutePolicy(int(route) % 2),
			Shards:    int(shards%8) + 1,
			BatchSize: []int{1, 2, 8, 64}[batch%4],
		}
		if cfg.Shards > cfg.QueueCap {
			cfg.Shards = cfg.QueueCap // Validate requires a slot per shard
		}
		for i := 0; i < int(tenancy%4); i++ {
			cfg.Tenants = append(cfg.Tenants, TenantConfig{
				Shed:     ShedPolicy((int(shed) + i) % 3),
				Priority: PriorityClass((int(tenancy/4) + i) % 3),
			})
		}
		if len(cfg.Tenants) > 0 {
			cfg.Tenants[0].RateLimit = float64(tenancy/16) / 4 // requests per op; 0 = no contract
		}
		// policy resolves a request's shed policy and rate contract the
		// way the dispatcher does.
		policy := func(r Request) (ShedPolicy, bool) {
			if len(cfg.Tenants) == 0 {
				return cfg.Shed, false
			}
			k := r.Tenant
			if k >= len(cfg.Tenants) {
				k = 0
			}
			return cfg.Tenants[k].Shed, cfg.Tenants[k].RateLimit > 0
		}
		d, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%+v): %v", cfg, err)
		}
		var ref *refDispatcher // single-lock oracle, 1-shard only
		if cfg.Shards == 1 {
			if ref, err = newRefDispatcher(cfg); err != nil {
				t.Fatalf("newRefDispatcher(%+v): %v", cfg, err)
			}
		}
		var id int64
		var enqueued float64
		depths := make([]int, cfg.N)
		sub := d.NewSubmitter()
		var pending []Request
		verdicts := make([]Verdict, 0, cfg.BatchSize)
		// account applies one flushed batch's verdicts to the sequential
		// depth/backlog model; SubmitBatch returns verdicts in request
		// order, so pending[i] pairs with verdicts[i].
		account := func(k int) {
			verdicts = sub.SubmitBatch(pending, verdicts[:0])
			for i, v := range verdicts {
				if ref != nil {
					if want := ref.Submit(pending[i]); v != want {
						t.Fatalf("op %d: verdict %+v != reference %+v", k, v, want)
					}
				}
				shedPolicy, limited := policy(pending[i])
				switch v.Outcome {
				case Routed, Spilled:
					if v.Worker < 0 || v.Worker >= cfg.N {
						t.Fatalf("op %d: routed to worker %d of %d", k, v.Worker, cfg.N)
					}
					depths[v.Worker]++
					enqueued += pending[i].Demand
				case Shed:
					if shedPolicy == ShedBlock {
						t.Fatalf("op %d: block policy shed a request", k)
					}
				case Blocked:
					if shedPolicy != ShedBlock {
						t.Fatalf("op %d: %v policy blocked a request", k, shedPolicy)
					}
				case Throttled:
					if !limited {
						t.Fatalf("op %d: tenant %d without a rate contract throttled", k, pending[i].Tenant)
					}
				default:
					t.Fatalf("op %d: unknown outcome %v", k, v.Outcome)
				}
			}
			pending = pending[:0]
		}
		for k, op := range ops {
			if op%4 == 3 {
				// Flush before completing so the model sees admissions and
				// completions in program order.
				account(k)
				w := int(op>>2) % cfg.N
				req, ok := d.Complete(w, float64(k))
				if ok {
					depths[w]--
					enqueued -= req.Demand
				}
				if ref != nil {
					if rr, okr := ref.Complete(w, float64(k)); okr != ok || rr != req {
						t.Fatalf("op %d: complete %+v,%v != reference %+v,%v", k, req, ok, rr, okr)
					}
				}
				continue
			}
			id++
			pending = append(pending, Request{ID: id, Arrival: float64(k), Demand: 0.1 + float64(op%7), Tenant: int(op >> 5)})
			if len(pending) >= cfg.BatchSize {
				account(k)
			}
		}
		account(len(ops))
		tot := d.Totals()
		if ref != nil {
			if want := ref.Totals(); !reflect.DeepEqual(tot, want) {
				t.Fatalf("totals %+v != reference %+v", tot, want)
			}
			if got, want := d.TenantTotals(), ref.TenantTotals(); !reflect.DeepEqual(got, want) {
				t.Fatalf("tenant totals %+v != reference %+v", got, want)
			}
		}
		var routed int64
		for w, r := range tot.Routed {
			if gotDepth := d.Depths()[w]; gotDepth != depths[w] {
				t.Fatalf("worker %d depth = %d, want %d", w, gotDepth, depths[w])
			}
			if depths[w] > cfg.QueueCap {
				t.Fatalf("worker %d depth %d exceeds cap %d", w, depths[w], cfg.QueueCap)
			}
			routed += r
		}
		if tot.Arrivals != routed+tot.Shed+tot.Blocked {
			t.Fatalf("conservation violated: %d arrivals != %d routed + %d shed + %d blocked",
				tot.Arrivals, routed, tot.Shed, tot.Blocked)
		}
		var backlog float64
		for _, b := range d.Backlog() {
			backlog += b
		}
		if math.Abs(backlog-enqueued) > 1e-9*(1+math.Abs(enqueued)) {
			t.Fatalf("backlog %v != enqueued work %v", backlog, enqueued)
		}

		// Concurrent replay: the same op stream offered from several
		// goroutines at once, racing batched completions against batched
		// submissions. The interleaving is nondeterministic, so only the
		// interleaving-free invariants are asserted at quiescence:
		// conservation, and no worker's aggregate depth above the
		// configured capacity.
		dc, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%+v): %v", cfg, err)
		}
		submitters := int(par%4) + 1
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				csub := dc.NewSubmitter()
				var cpending []Request
				cverdicts := make([]Verdict, 0, cfg.BatchSize)
				base := int64(g+1) * (int64(len(ops)) + 1)
				for k, op := range ops {
					if op%4 == 3 {
						if op%8 == 7 {
							dc.CompleteBatch(int(op>>2)%cfg.N, 2, float64(k))
						} else {
							dc.Complete(int(op>>2)%cfg.N, float64(k))
						}
						continue
					}
					cpending = append(cpending, Request{ID: base + int64(k), Arrival: float64(k), Demand: 0.1 + float64(op%7), Tenant: int(op >> 5)})
					if len(cpending) >= cfg.BatchSize {
						cverdicts = csub.SubmitBatch(cpending, cverdicts[:0])
						cpending = cpending[:0]
					}
				}
				if len(cpending) > 0 {
					csub.SubmitBatch(cpending, cverdicts[:0])
				}
			}(g)
		}
		wg.Wait()
		ctot := dc.Totals()
		var crouted int64
		for _, r := range ctot.Routed {
			crouted += r
		}
		if ctot.Arrivals != crouted+ctot.Shed+ctot.Blocked {
			t.Fatalf("concurrent conservation violated: %d arrivals != %d routed + %d shed + %d blocked",
				ctot.Arrivals, crouted, ctot.Shed, ctot.Blocked)
		}
		for w, depth := range dc.Depths() {
			if depth > cfg.QueueCap {
				t.Fatalf("concurrent replay: worker %d depth %d exceeds cap %d", w, depth, cfg.QueueCap)
			}
		}
	})
}

// FuzzTenantConfig checks that TenantConfig.Validate never panics on
// arbitrary field values and that it is the single admission gate for
// tenant configurations: any tenant it accepts must construct a working
// dispatcher through New, and the accepted enum fields (priority class,
// shed policy, objective) must round-trip through their text encodings
// — the same path flag.TextVar and text configs go through.
func FuzzTenantConfig(f *testing.F) {
	f.Add("gold", 1.0, uint8(0), 100.0, 50.0, 2.0, uint8(0), 0.0, 0.05)
	f.Add("t-1.api", 0.5, uint8(2), 0.0, 0.0, 0.0, uint8(2), 2.0, 0.0)
	f.Add("bad name!", -1.0, uint8(7), math.Inf(1), math.NaN(), -3.0, uint8(9), 0.5, 2.0)
	f.Add("", 0.0, uint8(1), 10.0, 10.0, 1.0, uint8(1), 1.5, 1.0)
	f.Fuzz(func(t *testing.T, name string, weight float64, prio uint8, rate, rateLimit, demandMean float64, shed uint8, p, alpha float64) {
		tc := TenantConfig{
			Name:       name,
			Weight:     weight,
			Priority:   PriorityClass(prio),
			Rate:       rate,
			RateLimit:  rateLimit,
			DemandMean: demandMean,
			Shed:       ShedPolicy(shed),
			Alpha1:     alpha,
		}
		if p != 0 {
			tc.Objective = optimum.Lp(p)
		}
		if err := tc.Validate(); err != nil {
			if err.Error() == "" {
				t.Fatal("empty validation error")
			}
			return
		}
		d, err := New(Config{N: 2, QueueCap: 4, Tenants: []TenantConfig{tc}})
		if err != nil {
			t.Fatalf("Validate accepted %+v but New rejected it: %v", tc, err)
		}
		v := d.Submit(Request{ID: 1, Demand: 1})
		switch v.Outcome {
		case Routed, Spilled, Shed, Blocked, Throttled:
		default:
			t.Fatalf("unknown outcome %v for tenant %+v", v.Outcome, tc)
		}
		var pc PriorityClass
		if err := pc.UnmarshalText([]byte(tc.Priority.String())); err != nil || pc != tc.Priority {
			t.Fatalf("priority %v does not round-trip (%v, %v)", tc.Priority, pc, err)
		}
		var sp ShedPolicy
		if err := sp.UnmarshalText([]byte(tc.Shed.String())); err != nil || sp != tc.Shed {
			t.Fatalf("shed policy %v does not round-trip (%v, %v)", tc.Shed, sp, err)
		}
		var obj optimum.Objective
		if err := obj.UnmarshalText([]byte(tc.Objective.String())); err != nil || obj != tc.Objective {
			t.Fatalf("objective %v does not round-trip (%v, %v)", tc.Objective, obj, err)
		}
	})
}

// FuzzParsePolicies checks that the three policies' UnmarshalText never
// panics on arbitrary input and that every successful parse round-trips
// through String back to the same value.
func FuzzParsePolicies(f *testing.F) {
	f.Add("reject")
	f.Add("JSQ")
	f.Add(" Spill ")
	f.Add("uniform")
	f.Add("\x00\xff")
	f.Fuzz(func(t *testing.T, s string) {
		fuzzTextRoundTrip[ShedPolicy](t, s)
		fuzzTextRoundTrip[RoutePolicy](t, s)
		fuzzTextRoundTrip[ControlPolicy](t, s)
	})
}

// fuzzTextRoundTrip parses s into a policy P and, when that succeeds,
// parses its String spelling back to the same value.
func fuzzTextRoundTrip[P interface {
	comparable
	fmt.Stringer
}, PP interface {
	*P
	UnmarshalText([]byte) error
}](t *testing.T, s string) {
	var p, rt P
	if PP(&p).UnmarshalText([]byte(s)) != nil {
		return
	}
	if err := PP(&rt).UnmarshalText([]byte(p.String())); err != nil || rt != p {
		t.Fatalf("%T %q -> %v does not round-trip (%v, %v)", p, s, p, rt, err)
	}
}
