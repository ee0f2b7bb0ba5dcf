package dispatch

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzAdminDecoders drives the /admin/weights and /admin/cap decoders
// with arbitrary query strings, then admits requests, and checks that
// every answer is 200 or 400 with a 200 body that decodes, that every
// tenant's weights and every smooth-WRR accumulator stay finite, and
// that no queue ring grows past max(its initial size, twice the largest
// occupancy it has held). The seeds run on every go test.
func FuzzAdminDecoders(f *testing.F) {
	for _, seed := range []struct{ weights, cap string }{
		{"w=1,Inf,1", "cap=4000000"},
		{"w=1e308,1e308,1", "cap=8"},
		{"w=8.9e307,8.9e307,0", "cap=1"},
		{"w=NaN,1,1&tenant=1", "cap=0"},
		{"w=-1,1,1", "cap=-3"},
		{"w=1,1", "cap=abc"},
		{"w=0.5,0.25,0.25&tenant=1", "cap=99999999999999999999"},
		{"w=1,1,1&tenant=7", ""},
		{"w=1,2,3&drain=1&wait-ms=5", "cap=64"},
		{"w=+Inf,-Inf,0", "cap=3"},
		{"", "cap=64&cap=2"},
	} {
		f.Add(seed.weights, seed.cap, uint8(40))
	}
	f.Fuzz(func(t *testing.T, weightsQuery, capQuery string, admissions uint8) {
		d, err := New(Config{N: 3, QueueCap: 6, Shards: 2, Tenants: []TenantConfig{{Name: "gold"}, {Name: "bronze", Priority: PriorityBronze}}})
		if err != nil {
			t.Fatal(err)
		}
		initial := len(d.shards[0].queues[0].buf)
		peak := make(map[*queue]int)
		h := (&Live{d: d}).AdminHandler()
		for _, target := range []string{"/admin/weights?" + weightsQuery, "/admin/cap?" + capQuery} {
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
			default:
				t.Fatalf("POST %s: status %d, body %q", target, rec.Code, rec.Body.String())
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
