package dispatch

import (
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"dolbie/internal/optimum"
)

func TestPriorityClassTextRoundTrip(t *testing.T) {
	for _, p := range []PriorityClass{PriorityGold, PrioritySilver, PriorityBronze} {
		b, err := p.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText(%v): %v", p, err)
		}
		var back PriorityClass
		if err := back.UnmarshalText([]byte(strings.ToUpper(string(b)))); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", b, err)
		}
		if back != p {
			t.Fatalf("round trip %v -> %q -> %v", p, b, back)
		}
	}
	if _, err := PriorityClass(7).MarshalText(); err == nil {
		t.Fatal("MarshalText(7) should error")
	}
	var p PriorityClass
	if err := p.UnmarshalText([]byte("platinum")); err == nil {
		t.Fatal("UnmarshalText(platinum) should error")
	}
}

func TestQueueLimit(t *testing.T) {
	cases := []struct {
		class PriorityClass
		cap   int
		want  int
	}{
		{PriorityGold, 64, 64},
		{PrioritySilver, 64, 48},
		{PriorityBronze, 64, 32},
		{PriorityGold, 1, 1},
		{PrioritySilver, 1, 1},
		{PriorityBronze, 1, 1},
		{PriorityBronze, 3, 2},
	}
	for _, c := range cases {
		if got := c.class.queueLimit(c.cap); got != c.want {
			t.Errorf("%v.queueLimit(%d) = %d, want %d", c.class, c.cap, got, c.want)
		}
	}
}

func TestTenantConfigValidate(t *testing.T) {
	good := TenantConfig{Name: "gold-1.a_b", Weight: 2, Priority: PrioritySilver, Rate: 10, RateLimit: 5, DemandMean: 1, Shed: ShedSpill, Objective: optimum.Lp(2), Alpha1: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []struct {
		name string
		cfg  TenantConfig
		want string
	}{
		{"bad name", TenantConfig{Name: "a b"}, "contains"},
		{"negative weight", TenantConfig{Weight: -1}, "weight -1"},
		{"infinite weight", TenantConfig{Weight: math.Inf(1)}, "weight +Inf"},
		{"unknown priority", TenantConfig{Priority: PriorityClass(9)}, "priority class"},
		{"negative rate", TenantConfig{Rate: -1}, "rate -1"},
		{"infinite rate", TenantConfig{Rate: math.Inf(1)}, "rate +Inf"},
		{"negative rate limit", TenantConfig{RateLimit: -1}, "rate limit -1"},
		{"infinite rate limit", TenantConfig{RateLimit: math.Inf(1)}, "rate limit +Inf"},
		{"negative demand", TenantConfig{DemandMean: -1}, "demand mean -1"},
		{"infinite demand", TenantConfig{DemandMean: math.Inf(1)}, "demand mean +Inf"},
		{"unknown shed", TenantConfig{Shed: ShedPolicy(9)}, "shed policy"},
		{"bad objective", TenantConfig{Objective: optimum.Lp(0.5)}, "p = 0.5"},
		{"alpha out of range", TenantConfig{Alpha1: 1.5}, "Alpha1"},
		{"NaN alpha", TenantConfig{Alpha1: math.NaN()}, "Alpha1"},
	}
	for _, c := range bad {
		err := c.cfg.Validate()
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestDefaultTenantsFresh(t *testing.T) {
	a, b := DefaultTenants(3), DefaultTenants(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("DefaultTenants not deterministic")
	}
	a[0].Weight = 99
	if b[0].Weight == 99 {
		t.Fatal("DefaultTenants calls alias the same backing array")
	}
	if a[0].Priority != PriorityGold || a[1].Priority != PrioritySilver || a[2].Priority != PriorityBronze {
		t.Fatalf("class cycle wrong: %+v", a)
	}
	if a[0].Name != "gold" || a[1].Name != "silver" || a[2].Name != "bronze" {
		t.Fatalf("names wrong: %+v", a)
	}
	many := DefaultTenants(5)
	if many[3].Name != "gold3" || many[3].Priority != PriorityGold {
		t.Fatalf("wrapped tenant wrong: %+v", many[3])
	}
}

// TestPriorityShedOrdering drives one worker's queue toward capacity
// with alternating gold and bronze traffic and asserts strict shed
// ordering: bronze sheds once depth crosses its threshold while gold
// still admits, and gold only sheds at full capacity.
func TestPriorityShedOrdering(t *testing.T) {
	cfg := Config{N: 1, QueueCap: 8, Tenants: []TenantConfig{
		{Name: "gold", Priority: PriorityGold},
		{Name: "bronze", Priority: PriorityBronze},
	}}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var firstBronzeShed, firstGoldShed int64 = -1, -1
	for i := int64(0); i < 32; i++ {
		k := int(i % 2)
		v := d.Submit(Request{ID: i, Arrival: float64(i), Demand: 1, Tenant: k})
		if v.Outcome == Shed {
			if k == 1 && firstBronzeShed < 0 {
				firstBronzeShed = i
			}
			if k == 0 && firstGoldShed < 0 {
				firstGoldShed = i
			}
		}
	}
	if firstBronzeShed < 0 {
		t.Fatal("bronze never shed")
	}
	if firstGoldShed < 0 {
		t.Fatal("gold never shed (queue should have filled)")
	}
	if firstBronzeShed >= firstGoldShed {
		t.Fatalf("bronze first shed at %d, gold at %d: want bronze strictly first", firstBronzeShed, firstGoldShed)
	}
	tt := d.TenantTotals()
	if tt[1].Shed == 0 || tt[0].Shed == 0 {
		t.Fatalf("expected both classes to shed eventually: %+v", tt)
	}
	// Depth at bronze's first shed must equal the bronze threshold while
	// gold still had room.
	if lim := PriorityBronze.queueLimit(8); tt[1].Routed != int64(lim)/2+int64(lim)%2 && tt[1].Routed >= tt[0].Routed {
		t.Logf("bronze routed %d, gold routed %d (limit %d)", tt[1].Routed, tt[0].Routed, lim)
	}
	if tt[0].Routed <= tt[1].Routed {
		t.Fatalf("gold routed %d should exceed bronze routed %d", tt[0].Routed, tt[1].Routed)
	}
}

// TestRateContractThrottle asserts the token bucket sheds arrivals
// beyond the tenant's admission contract with outcome Shed, counted as
// Throttled, and that the quiet tenant is untouched.
func TestRateContractThrottle(t *testing.T) {
	cfg := Config{N: 4, QueueCap: 1024, Tenants: []TenantConfig{
		{Name: "quiet", Priority: PriorityGold},
		{Name: "noisy", Priority: PriorityGold, RateLimit: 10},
	}}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 100 noisy arrivals in one simulated second: contract 10/s with
	// burst 10 admits ~10+refill, sheds the rest at the door.
	id := int64(0)
	for i := 0; i < 100; i++ {
		d.Submit(Request{ID: id, Arrival: float64(i) * 0.01, Demand: 1, Tenant: 1})
		id++
	}
	for i := 0; i < 50; i++ {
		v := d.Submit(Request{ID: id, Arrival: 1 + float64(i)*0.01, Demand: 1, Tenant: 0})
		if v.Outcome != Routed {
			t.Fatalf("quiet tenant got %v, want Routed", v.Outcome)
		}
		id++
	}
	tt := d.TenantTotals()
	if tt[1].Throttled == 0 {
		t.Fatalf("noisy tenant never throttled: %+v", tt[1])
	}
	if tt[1].Routed+tt[1].Throttled != tt[1].Arrivals {
		t.Fatalf("noisy conservation broken: %+v", tt[1])
	}
	if tt[0].Throttled != 0 || tt[0].Shed != 0 {
		t.Fatalf("quiet tenant harmed: %+v", tt[0])
	}
	// The aggregate Shed counter includes throttles.
	tot := d.Totals()
	if tot.Shed != tt[0].Shed+tt[1].Shed+tt[0].Throttled+tt[1].Throttled {
		t.Fatalf("aggregate Shed %d does not include throttles (%+v)", tot.Shed, tt)
	}
}

// TestTenantConservationEveryOutcome exercises every outcome across
// tenants with all three shed policies and asserts the per-tenant
// conservation law on the final snapshot.
func TestTenantConservationEveryOutcome(t *testing.T) {
	cfg := Config{N: 2, QueueCap: 4, Shards: 2, Tenants: []TenantConfig{
		{Name: "rej", Priority: PriorityBronze, Shed: ShedReject},
		{Name: "blk", Priority: PrioritySilver, Shed: ShedBlock},
		{Name: "spl", Priority: PriorityGold, Shed: ShedSpill},
		{Name: "thr", Priority: PriorityGold, Shed: ShedReject, RateLimit: 1},
	}}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 400; i++ {
		d.Submit(Request{ID: i, Arrival: float64(i) * 0.001, Demand: 1, Tenant: int(i % 4)})
		if i%5 == 0 {
			d.Complete(int(i)%2, float64(i)*0.001)
		}
	}
	var sumArr, sumRouted, sumShed, sumThr, sumBlocked int64
	for _, tt := range d.TenantTotals() {
		if got := tt.Routed + tt.Shed + tt.Throttled + tt.Blocked; got != tt.Arrivals {
			t.Errorf("tenant %s: conservation broken: %+v", tt.Name, tt)
		}
		sumArr += tt.Arrivals
		sumRouted += tt.Routed
		sumShed += tt.Shed
		sumThr += tt.Throttled
		sumBlocked += tt.Blocked
	}
	tot := d.Totals()
	if sumArr != tot.Arrivals {
		t.Errorf("tenant arrivals %d != aggregate %d", sumArr, tot.Arrivals)
	}
	var aggRouted int64
	for _, r := range tot.Routed {
		aggRouted += r
	}
	if sumRouted != aggRouted || sumShed+sumThr != tot.Shed || sumBlocked != tot.Blocked {
		t.Errorf("tenant sums diverge from aggregates: routed %d/%d shed %d/%d blocked %d/%d",
			sumRouted, aggRouted, sumShed+sumThr, tot.Shed, sumBlocked, tot.Blocked)
	}
}

// TestAnonymousMatchesExplicitSingleTenant pins the API redesign's core
// promise: an empty Tenants list behaves bit for bit like one explicit
// gold tenant with the Config-level shed policy.
func TestAnonymousMatchesExplicitSingleTenant(t *testing.T) {
	for _, shed := range []ShedPolicy{ShedReject, ShedBlock, ShedSpill} {
		anon, err := New(Config{N: 3, QueueCap: 6, Shed: shed})
		if err != nil {
			t.Fatal(err)
		}
		expl, err := New(Config{N: 3, QueueCap: 6, Tenants: []TenantConfig{{Name: "only", Shed: shed}}})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 200; i++ {
			r := Request{ID: i, Arrival: float64(i) * 0.01, Demand: 1}
			va, ve := anon.Submit(r), expl.Submit(r)
			if va != ve {
				t.Fatalf("shed=%v id=%d: anon %+v != explicit %+v", shed, i, va, ve)
			}
			if i%7 == 0 {
				ra, oka := anon.Complete(int(i)%3, float64(i)*0.01)
				re, oke := expl.Complete(int(i)%3, float64(i)*0.01)
				if oka != oke || ra != re {
					t.Fatalf("shed=%v id=%d: completions diverge", shed, i)
				}
			}
		}
		ta, te := anon.Totals(), expl.Totals()
		if !reflect.DeepEqual(ta, te) {
			t.Fatalf("shed=%v: totals diverge: %+v vs %+v", shed, ta, te)
		}
	}
}

// TestRefMatchesShardedMultiTenant extends the single-lock equivalence
// to tenancy: Shards=1 multi-tenant admission must match the reference
// dispatcher decision for decision.
func TestRefMatchesShardedMultiTenant(t *testing.T) {
	tenants := []TenantConfig{
		{Name: "gold", Priority: PriorityGold, Shed: ShedSpill},
		{Name: "silver", Priority: PrioritySilver, Shed: ShedBlock},
		{Name: "bronze", Priority: PriorityBronze, Shed: ShedReject, RateLimit: 50},
	}
	cfg := Config{N: 4, QueueCap: 8, Shards: 1, Tenants: tenants}
	sharded, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefDispatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.4, 0.3, 0.2, 0.1}
	if err := sharded.SetTenantWeights(0, w); err != nil {
		t.Fatal(err)
	}
	if err := ref.SetTenantWeights(0, w); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 500; i++ {
		r := Request{ID: i, Arrival: float64(i) * 0.003, Demand: 1, Tenant: int(i % 3)}
		vs, vr := sharded.Submit(r), ref.Submit(r)
		if vs != vr {
			t.Fatalf("id=%d tenant=%d: sharded %+v != ref %+v", i, r.Tenant, vs, vr)
		}
		if i%6 == 0 {
			rs, oks := sharded.Complete(int(i)%4, float64(i)*0.003)
			rr, okr := ref.Complete(int(i)%4, float64(i)*0.003)
			if oks != okr || rs != rr {
				t.Fatalf("id=%d: completions diverge", i)
			}
		}
	}
	if !reflect.DeepEqual(sharded.Totals(), ref.Totals()) {
		t.Fatalf("totals diverge: %+v vs %+v", sharded.Totals(), ref.Totals())
	}
	if !reflect.DeepEqual(sharded.TenantTotals(), ref.TenantTotals()) {
		t.Fatalf("tenant totals diverge:\n%+v\n%+v", sharded.TenantTotals(), ref.TenantTotals())
	}
}

func TestIngestHandlerTenantParam(t *testing.T) {
	d, err := New(Config{N: 2, QueueCap: 8, Tenants: DefaultTenants(2)})
	if err != nil {
		t.Fatal(err)
	}
	h := IngestHandler(d, func() float64 { return 0 })
	post := func(target string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", target, nil))
		return rec
	}
	if rec := post("/ingest?tenant=1"); rec.Code != 200 {
		t.Fatalf("tenant=1: got %d: %s", rec.Code, rec.Body)
	}
	if rec := post("/ingest?tenant=2"); rec.Code != 400 {
		t.Fatalf("tenant=2 out of range: got %d, want 400", rec.Code)
	}
	if rec := post("/ingest?tenant=-1"); rec.Code != 400 {
		t.Fatalf("tenant=-1: got %d, want 400", rec.Code)
	}
	if rec := post("/ingest?tenant=x"); rec.Code != 400 {
		t.Fatalf("tenant=x: got %d, want 400", rec.Code)
	}
	tt := d.TenantTotals()
	if tt[1].Arrivals != 1 || tt[0].Arrivals != 0 {
		t.Fatalf("tenant routing wrong: %+v", tt)
	}
}

func TestShedRoutePolicyTextRoundTrip(t *testing.T) {
	for _, s := range []ShedPolicy{ShedReject, ShedBlock, ShedSpill} {
		b, err := s.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back ShedPolicy
		if err := back.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if back != s {
			t.Fatalf("shed round trip %v -> %v", s, back)
		}
	}
	if _, err := ShedPolicy(9).MarshalText(); err == nil {
		t.Fatal("ShedPolicy(9).MarshalText should error")
	}
	for _, r := range []RoutePolicy{RouteWeighted, RouteJSQ} {
		b, err := r.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back RoutePolicy
		if err := back.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if back != r {
			t.Fatalf("route round trip %v -> %v", r, back)
		}
	}
	var rp RoutePolicy
	if err := rp.UnmarshalText([]byte("wrr")); err != nil || rp != RouteWeighted {
		t.Fatalf("wrr alias: %v %v", rp, err)
	}
	if _, err := RoutePolicy(9).MarshalText(); err == nil {
		t.Fatal("RoutePolicy(9).MarshalText should error")
	}
}
