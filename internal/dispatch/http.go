package dispatch

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ingestBufPool recycles the per-request response buffers so the ingest
// hot path stays allocation-free: the admission itself commits in one
// shard critical section, and the JSON verdict is appended into a pooled
// buffer instead of going through a fresh encoder per request.
var ingestBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64)
		return &b
	},
}

// verdictEncoder renders the ingest response
// `{"id":N,"outcome":"...","worker":N}` plus a trailing newline with
// the outcome/worker tail constant-folded: for a dispatcher with N
// workers there are only 5×(N+1) possible `,"outcome":"...","worker":W}`
// suffixes, so the encoder precomputes them all and the hot path
// appends one integer (the request ID) and one fixed byte string per
// verdict. Output is byte-identical to encoding/json (pinned by
// TestIngestEncodingMatchesEncodingJSON, and through the handler by
// TestVerdictEncoderMatchesAppendIngestResponse). Safe for concurrent
// use after construction — the table is read-only.
type verdictEncoder struct {
	// suffix is indexed [outcome][worker+1] (worker -1 is slot 0).
	suffix [][][]byte
}

// newVerdictEncoder builds the suffix table for workers 0..n-1 plus the
// -1 sentinel carried by refusal verdicts.
func newVerdictEncoder(n int) *verdictEncoder {
	e := &verdictEncoder{suffix: make([][][]byte, Throttled+1)}
	for o := Routed; o <= Throttled; o++ {
		e.suffix[o] = make([][]byte, n+1)
		for w := -1; w < n; w++ {
			var b []byte
			b = append(b, `,"outcome":"`...)
			b = append(b, o.String()...)
			b = append(b, `","worker":`...)
			b = strconv.AppendInt(b, int64(w), 10)
			b = append(b, '}', '\n')
			e.suffix[o][w+1] = b
		}
	}
	return e
}

// append renders one verdict.
func (e *verdictEncoder) append(b []byte, id int64, v Verdict) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, id, 10)
	return append(b, e.suffix[v.Outcome][v.Worker+1]...)
}

// queryValue returns url.ParseQuery(rawQuery).Get(key) without building
// the url.Values map: the first value under key, skipping every pair
// ParseQuery skips (empty, holding a semicolon, or badly escaped). The
// ingest path reads two parameters per request, and a map per parameter
// would be a third of the bytes a request allocates.
func queryValue(rawQuery, key string) string {
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// IngestHandler adapts a Dispatcher to live HTTP traffic: each POST is
// one request admission. The optional "demand" query parameter sets
// the service demand in work units (default 1); the optional "tenant"
// query parameter selects the submitting tenant by index (default 0).
// now supplies arrival timestamps in seconds — pass a monotonic clock
// for live use. (Live.Handler serves the same protocol with worker
// wakeups and ingest-latency instrumentation on top.)
//
// Status codes map the verdict exactly; every row of this table is
// asserted reachable by TestIngestStatusTable:
//
//	200 OK                   routed or spilled — the request is queued
//	                         on the verdict's worker
//	400 Bad Request          malformed "demand" (not a positive finite
//	                         float) or out-of-range "tenant" parameter
//	405 Method Not Allowed   any method other than POST
//	429 Too Many Requests    shed (queue backpressure under ShedReject
//	                         or spill exhaustion) or throttled (tenant
//	                         rate contract); Retry-After carries the
//	                         backoff hint in whole seconds
//	503 Service Unavailable  blocked — ShedBlock backpressure or a
//	                         graceful drain in progress; Retry-After
//	                         carries the backoff hint (5s while
//	                         draining: the instance is going away)
//
// The Retry-After value comes from Dispatcher.RetryAfterSeconds: it is
// derived from the drain state, the refusing shed policy's outcome, and
// the current total queue depth, and reads only lock-free atomics so
// the overload path stays cheap.
func IngestHandler(d *Dispatcher, now func() float64) http.Handler {
	return ingestCore(d, d.Submit, now)
}

// ingestCore is the shared POST /ingest implementation behind
// IngestHandler (bare dispatcher) and Live.Handler (wall-clock engine,
// which routes admissions through Live.Submit so the serving workers
// wake). submit performs the admission; d supplies tenant bounds and
// the Retry-After hint.
func ingestCore(d *Dispatcher, submit func(Request) Verdict, now func() float64) http.Handler {
	var seq atomic.Int64
	enc := newVerdictEncoder(d.N())
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		demand := 1.0
		if s := queryValue(req.URL.RawQuery, "demand"); s != "" {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil || !(v > 0) || math.IsInf(v, 1) {
				http.Error(w, fmt.Sprintf("bad demand %q", s), http.StatusBadRequest)
				return
			}
			demand = v
		}
		tenant := 0
		if s := queryValue(req.URL.RawQuery, "tenant"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 || v >= d.TenantCount() {
				http.Error(w, fmt.Sprintf("bad tenant %q (want 0..%d)", s, d.TenantCount()-1), http.StatusBadRequest)
				return
			}
			tenant = v
		}
		r := Request{ID: seq.Add(1), Arrival: now(), Demand: demand, Tenant: tenant}
		v := submit(r)
		status := http.StatusOK
		switch v.Outcome {
		case Shed, Throttled:
			status = http.StatusTooManyRequests
		case Blocked:
			status = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		if status != http.StatusOK {
			// Backpressure, not failure: tell the client when to come
			// back instead of letting the herd hammer a saturated (or
			// draining) admission gate.
			w.Header().Set("Retry-After", strconv.Itoa(d.RetryAfterSeconds(v.Outcome)))
		}
		w.WriteHeader(status)
		buf := ingestBufPool.Get().(*[]byte)
		*buf = enc.append((*buf)[:0], r.ID, v)
		_, _ = w.Write(*buf)
		ingestBufPool.Put(buf)
	})
}
