package dispatch

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// FuzzAdminDecoders drives the /admin/weights, /admin/cap, /admin/shed
// and /admin/drain decoders with arbitrary query strings, then admits
// requests, and checks that every answer is 200 or 400 with a 200 body
// that decodes, that a 200 shed leaves the tenant on the requested
// policy and a 200 drain leaves the dispatcher draining, that every
// tenant's weights and every smooth-WRR accumulator stay finite, and
// that no queue ring grows past max(its initial size, twice the largest
// occupancy it has held). The admin calls run before any admission, so
// a drain's wait returns at once; a drain is then lifted so that the
// admissions reach the queues. The seeds run on every go test.
func FuzzAdminDecoders(f *testing.F) {
	for _, seed := range []struct{ weights, cap, shed, drain string }{
		{"w=1,Inf,1", "cap=4000000", "policy=spill&tenant=1", "wait-ms=5"},
		{"w=1e308,1e308,1", "cap=8", "policy=BLOCK", ""},
		{"w=8.9e307,8.9e307,0", "cap=1", "policy=%20reject%20&tenant=0", "wait-ms=soon"},
		{"w=NaN,1,1&tenant=1", "cap=0", "policy=nope", "wait-ms=-1"},
		{"w=-1,1,1", "cap=-3", "policy=spill&tenant=7", "wait-ms=99999999999999999999"},
		{"w=1,1", "cap=abc", "policy=reject&tenant=-1", "wait-ms=0"},
		{"w=0.5,0.25,0.25&tenant=1", "cap=99999999999999999999", "tenant=1", "wait-ms=1&wait-ms=x"},
		{"w=1,1,1&tenant=7", "", "", "wait-ms=9223372036854775807"},
		{"w=1,2,3&drain=1&wait-ms=5", "cap=64", "policy=block&tenant=x", "wait-ms=%zz"},
		{"w=+Inf,-Inf,0", "cap=3", "policy=spill&policy=reject", "wait-ms=+2"},
		{"", "cap=64&cap=2", "tenant=1&policy=Spill", "wait-ms= 1"},
	} {
		f.Add(seed.weights, seed.cap, seed.shed, seed.drain, uint8(40))
	}
	f.Fuzz(func(t *testing.T, weightsQuery, capQuery, shedQuery, drainQuery string, admissions uint8) {
		d, err := New(Config{N: 3, QueueCap: 6, Shards: 2, Tenants: []TenantConfig{{Name: "gold"}, {Name: "bronze", Priority: PriorityBronze}}})
		if err != nil {
			t.Fatal(err)
		}
		initial := len(d.shards[0].queues[0].buf)
		peak := make(map[*queue]int)
		h := (&Live{d: d}).AdminHandler()
		for _, target := range []string{"/admin/weights?" + weightsQuery, "/admin/cap?" + capQuery, "/admin/shed?" + shedQuery, "/admin/drain?" + drainQuery} {
			req, err := http.NewRequest(http.MethodPost, "http://admin.test"+target, nil)
			if err != nil {
				continue // not a request net/http would have delivered
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK:
				var st adminStatus
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
					t.Fatalf("POST %s: 200 with body %q: %v", target, rec.Body.String(), err)
				}
			case http.StatusBadRequest:
				continue
			default:
				t.Fatalf("POST %s: status %d, body %q", target, rec.Code, rec.Body.String())
			}
			switch req.URL.Path {
			case "/admin/shed":
				q := req.URL.Query()
				k, _ := strconv.Atoi(q.Get("tenant")) // absent: tenant 0
				var want ShedPolicy
				if err := want.UnmarshalText([]byte(q.Get("policy"))); err != nil {
					t.Fatalf("POST %s: 200 for an unparsable policy: %v", target, err)
				}
				if got, err := d.TenantShed(k); err != nil || got != want {
					t.Fatalf("POST %s: 200, tenant %d shed %v (%v), want %v", target, k, got, err, want)
				}
			case "/admin/drain":
				if !d.Draining() {
					t.Fatalf("POST %s: 200 but not draining", target)
				}
				d.SetDraining(false)
			}
		}
		for i := 0; i < int(admissions); i++ {
			d.Submit(Request{ID: int64(i), Tenant: i % 2, Arrival: float64(i), Demand: 1})
			for _, s := range d.shards {
				for _, q := range s.queues {
					peak[q] = max(peak[q], q.len())
					if got, bound := len(q.buf), max(initial, 2*peak[q]); got > bound {
						t.Fatalf("ring holds %d slots after a peak occupancy of %d, bound %d", got, peak[q], bound)
					}
				}
			}
		}
		for si, s := range d.shards {
			for k := range d.tenants {
				finite := !math.IsInf(s.wrrTotal[k], 0) && !math.IsNaN(s.wrrTotal[k])
				for w := range s.weights[k] {
					for _, v := range []float64{s.weights[k][w], s.wrr[k][w]} {
						finite = finite && !math.IsInf(v, 0) && !math.IsNaN(v)
					}
				}
				if !finite {
					t.Fatalf("shard %d tenant %d: weights %v, total %v, accumulators %v: want all finite", si, k, s.weights[k], s.wrrTotal[k], s.wrr[k])
				}
			}
		}
	})
}
