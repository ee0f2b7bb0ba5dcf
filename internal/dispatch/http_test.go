package dispatch

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
)

// ingestStatus drives one request through the handler and returns the
// recorder.
func ingestStatus(t *testing.T, h http.Handler, method, target string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
	return rec
}

// requireRetryAfter asserts a refusal carries a positive whole-second
// Retry-After hint and returns it.
func requireRetryAfter(t *testing.T, rec *httptest.ResponseRecorder) int {
	t.Helper()
	s := rec.Header().Get("Retry-After")
	v, err := strconv.Atoi(s)
	if err != nil || v <= 0 {
		t.Fatalf("Retry-After = %q, want a positive integer (status %d)", s, rec.Code)
	}
	return v
}

// TestIngestStatusTable asserts every status code documented in the
// IngestHandler comment's table is reachable with exactly the
// documented semantics — the regression test that keeps the doc table
// honest: 200 routed, 400 bad parameter, 405 non-POST, 429
// shed/throttled with Retry-After, 503 blocked (ShedBlock and graceful
// drain) with Retry-After.
func TestIngestStatusTable(t *testing.T) {
	documented := map[int]bool{200: false, 400: false, 405: false, 429: false, 503: false}
	hit := func(rec *httptest.ResponseRecorder, want int, what string) {
		t.Helper()
		if rec.Code != want {
			t.Fatalf("%s: status %d, want %d (body %q)", what, rec.Code, want, rec.Body.String())
		}
		if _, ok := documented[want]; !ok {
			t.Fatalf("%s: status %d is not in the documented table", what, want)
		}
		documented[want] = true
	}

	clock := func() float64 { return 0 }

	// 200 routed + 429 shed (ShedReject on a full queue) on a 1-slot
	// dispatcher.
	d, err := New(Config{N: 1, QueueCap: 1, Shed: ShedReject})
	if err != nil {
		t.Fatal(err)
	}
	h := IngestHandler(d, clock)
	rec := ingestStatus(t, h, http.MethodPost, "/ingest")
	hit(rec, 200, "routed")
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		t.Fatalf("routed response carries Retry-After %q", ra)
	}
	rec = ingestStatus(t, h, http.MethodPost, "/ingest")
	hit(rec, 429, "shed")
	requireRetryAfter(t, rec)

	// 400 bad demand and bad tenant; 405 non-POST.
	hit(ingestStatus(t, h, http.MethodPost, "/ingest?demand=-1"), 400, "bad demand")
	hit(ingestStatus(t, h, http.MethodPost, "/ingest?demand=Inf"), 400, "bad demand")
	hit(ingestStatus(t, h, http.MethodPost, "/ingest?tenant=7"), 400, "bad tenant")
	hit(ingestStatus(t, h, http.MethodGet, "/ingest"), 405, "GET")

	// 429 throttled: a 1-token rate contract refuses the second
	// admission at the same arrival instant.
	dt, err := New(Config{N: 1, QueueCap: 8, Tenants: []TenantConfig{{Name: "metered", RateLimit: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	ht := IngestHandler(dt, clock)
	hit(ingestStatus(t, ht, http.MethodPost, "/ingest"), 200, "metered routed")
	rec = ingestStatus(t, ht, http.MethodPost, "/ingest")
	hit(rec, 429, "throttled")
	requireRetryAfter(t, rec)

	// 503 blocked: ShedBlock on a full queue.
	db, err := New(Config{N: 1, QueueCap: 1, Shed: ShedBlock})
	if err != nil {
		t.Fatal(err)
	}
	hb := IngestHandler(db, clock)
	hit(ingestStatus(t, hb, http.MethodPost, "/ingest"), 200, "pre-block routed")
	rec = ingestStatus(t, hb, http.MethodPost, "/ingest")
	hit(rec, 503, "blocked")
	requireRetryAfter(t, rec)

	// 503 draining: the graceful-drain gate refuses with the fixed 5s
	// re-resolve hint, regardless of shed policy or queue headroom.
	dd, err := New(Config{N: 1, QueueCap: 8, Shed: ShedReject})
	if err != nil {
		t.Fatal(err)
	}
	dd.SetDraining(true)
	rec = ingestStatus(t, IngestHandler(dd, clock), http.MethodPost, "/ingest")
	hit(rec, 503, "draining")
	if got := requireRetryAfter(t, rec); got != 5 {
		t.Fatalf("draining Retry-After = %d, want 5", got)
	}

	for code, seen := range documented {
		if !seen {
			t.Errorf("documented status %d never reached", code)
		}
	}
}

// TestRetryAfterSeconds pins the backoff derivation: drain dominates at
// 5s, Blocked and Throttled hint 1s, and Shed scales 1..4s with the
// queue-fill fraction.
func TestRetryAfterSeconds(t *testing.T) {
	d, err := New(Config{N: 2, QueueCap: 4, Shed: ShedReject})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.RetryAfterSeconds(Shed); got != 1 {
		t.Fatalf("empty-plane shed hint = %d, want 1", got)
	}
	if got := d.RetryAfterSeconds(Blocked); got != 1 {
		t.Fatalf("blocked hint = %d, want 1", got)
	}
	if got := d.RetryAfterSeconds(Throttled); got != 1 {
		t.Fatalf("throttled hint = %d, want 1", got)
	}
	for i := 0; i < 8; i++ {
		d.Submit(Request{ID: int64(i + 1), Demand: 1})
	}
	if got := d.RetryAfterSeconds(Shed); got != 4 {
		t.Fatalf("full-plane shed hint = %d, want 4 (depth %d of %d)", got, d.Depth(), d.QueueCap()*d.N())
	}
	d.SetDraining(true)
	for _, o := range []Outcome{Shed, Blocked, Throttled} {
		if got := d.RetryAfterSeconds(o); got != 5 {
			t.Fatalf("draining hint for %v = %d, want 5", o, got)
		}
	}
}

// queryValueCases are raw queries that exercise every pair url.ParseQuery
// skips or decodes: duplicates, empty pairs, semicolons, bad escapes,
// escaped keys and values, '+' for space, and keys without '='.
var queryValueCases = []string{
	"",
	"demand=0.5",
	"demand=0.5&tenant=2",
	"tenant=1&demand=2&demand=3",
	"demand=&demand=4",
	"demand",
	"&&demand=1&&",
	"demand=1;tenant=2&tenant=3",
	"a=1;b=2&demand=7",
	"demand=%zz&demand=8",
	"dem%61nd=9&tenant=%31",
	"demand=1%2B2&tenant=a+b",
	"%=1&demand=2",
	"demand=1=2",
	"tenant=-1&demand=1e-3",
}

// TestIngestAllocatesNoQueryMap checks the ingest handler reads its two
// parameters without parsing the query into a map: a POST allocates only
// what net/http's ResponseWriter and the verdict buffer need.
func TestIngestAllocatesNoQueryMap(t *testing.T) {
	d, err := New(Config{N: 2, QueueCap: 1024, Shed: ShedReject})
	if err != nil {
		t.Fatal(err)
	}
	h := IngestHandler(d, func() float64 { return 0 })
	req := httptest.NewRequest(http.MethodPost, "/ingest?demand=0.25&tenant=0", nil)
	rec := httptest.NewRecorder()
	withQuery := testing.AllocsPerRun(100, func() {
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
	})
	bare := httptest.NewRequest(http.MethodPost, "/ingest", nil)
	without := testing.AllocsPerRun(100, func() {
		rec.Body.Reset()
		h.ServeHTTP(rec, bare)
	})
	if withQuery > without {
		t.Errorf("a request with query parameters allocates %v times, one without %v", withQuery, without)
	}
}

// FuzzQueryValue pins queryValue to the url.Values it replaces on the
// ingest path, on arbitrary raw queries and keys: the query string is
// untrusted client input. The seeds run on every go test.
func FuzzQueryValue(f *testing.F) {
	for _, raw := range queryValueCases {
		for _, key := range []string{"demand", "tenant", "a", "", "missing"} {
			f.Add(raw, key)
		}
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		vals, _ := url.ParseQuery(raw)
		if got, want := queryValue(raw, key), vals.Get(key); got != want {
			t.Fatalf("queryValue(%q, %q) = %q, url.ParseQuery gives %q", raw, key, got, want)
		}
	})
}
