package dispatch

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// adminStatus is the GET /admin/status response body.
type adminStatus struct {
	// Draining reports the graceful-drain gate.
	Draining bool `json:"draining"`
	// Depth is the total number of queued or in-service requests.
	Depth int64 `json:"depth"`
	// QueueCap is the current per-worker queue capacity.
	QueueCap int `json:"queue_cap"`
	// Workers is the worker count.
	Workers int `json:"workers"`
	// Tenants lists every tenant's live-reloadable state.
	Tenants []adminTenantStatus `json:"tenants"`
}

// adminTenantStatus is one tenant's slice of the admin status.
type adminTenantStatus struct {
	// Name is the tenant's resolved name.
	Name string `json:"name"`
	// Shed is the tenant's current backpressure policy.
	Shed string `json:"shed"`
	// Weights is the tenant's current routing weight vector.
	Weights []float64 `json:"weights"`
}

// AdminHandler returns the live operations endpoint, meant to be
// mounted on the metrics server's mux (not the ingest listener — the
// control plane must stay reachable while the data plane is saturated):
//
//	GET  /admin/status                      current drain state, depth, cap,
//	                                        and per-tenant shed/weights
//	POST /admin/drain[?wait-ms=N]           begin a graceful drain; with
//	                                        wait-ms, block until idle or timeout
//	POST /admin/resume                      reopen admission after a drain
//	POST /admin/shed?policy=P[&tenant=K]    hot-reload tenant K's shed policy
//	                                        (reject, block, or spill)
//	POST /admin/cap?cap=N                   hot-reload the per-worker queue cap
//	                                        (queued requests are never dropped)
//	POST /admin/weights?w=W,..[&tenant=K]   install routing weights; add
//	                                        [&drain=1&wait-ms=N] for a drained
//	                                        round-boundary swap (see Retune)
//
// Every mutation responds with the resulting status JSON (or 400/405 on
// bad input) and counts in dolbie_dispatch_live_reloads_total{knob}.
func (l *Live) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/admin/status", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		l.writeStatus(w)
	})
	mux.HandleFunc("/admin/drain", l.adminPost(func(req *http.Request) error {
		ms, err := formInt(req, "wait-ms", 0)
		if err != nil {
			return err
		}
		l.BeginDrain()
		if ms > 0 {
			l.WaitIdle(time.Duration(ms) * time.Millisecond)
		}
		return nil
	}))
	mux.HandleFunc("/admin/resume", l.adminPost(func(req *http.Request) error {
		l.Resume()
		return nil
	}))
	mux.HandleFunc("/admin/shed", l.adminPost(func(req *http.Request) error {
		k, err := formInt(req, "tenant", 0)
		if err != nil {
			return err
		}
		var p ShedPolicy
		if err := p.UnmarshalText([]byte(req.URL.Query().Get("policy"))); err != nil {
			return err
		}
		if err := l.d.SetTenantShed(k, p); err != nil {
			return err
		}
		if l.li != nil {
			l.li.reloadShed.Inc()
		}
		return nil
	}))
	mux.HandleFunc("/admin/cap", l.adminPost(func(req *http.Request) error {
		c, err := formInt(req, "cap", -1)
		if err != nil {
			return err
		}
		if err := l.d.SetQueueCap(c); err != nil {
			return err
		}
		if l.li != nil {
			l.li.reloadCap.Inc()
		}
		return nil
	}))
	mux.HandleFunc("/admin/weights", l.adminPost(func(req *http.Request) error {
		k, err := formInt(req, "tenant", 0)
		if err != nil {
			return err
		}
		weights, err := parseWeights(req.URL.Query().Get("w"))
		if err != nil {
			return err
		}
		drain := req.URL.Query().Get("drain") == "1"
		ms, err := formInt(req, "wait-ms", 1000)
		if err != nil {
			return err
		}
		if err := l.Retune(k, weights, drain, time.Duration(ms)*time.Millisecond); err != nil {
			return err
		}
		if l.li != nil {
			l.li.reloadWeights.Inc()
		}
		return nil
	}))
	return mux
}

// adminPost wraps one mutating admin action: POST only, 400 with the
// error text on failure, the refreshed status JSON on success.
func (l *Live) adminPost(do func(req *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if err := do(req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		l.writeStatus(w)
	}
}

// writeStatus renders the current admin status, or answers 500 when it
// cannot be encoded. The admin path is not the hot path, so it uses
// encoding/json directly.
func (l *Live) writeStatus(w http.ResponseWriter) {
	d := l.d
	st := adminStatus{
		Draining: d.Draining(),
		Depth:    d.Depth(),
		QueueCap: d.QueueCap(),
		Workers:  d.N(),
		Tenants:  make([]adminTenantStatus, d.TenantCount()),
	}
	for k := range st.Tenants {
		shed, _ := d.TenantShed(k)
		st.Tenants[k] = adminTenantStatus{
			Name:    d.tenants[k].Name,
			Shed:    shed.String(),
			Weights: d.TenantWeights(k),
		}
	}
	body, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n')) //nolint:errcheck // the client may have gone
}

// formInt parses an optional integer query parameter, returning def
// when absent.
func formInt(req *http.Request, name string, def int) (int, error) {
	s := req.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, s)
	}
	return v, nil
}

// parseWeights parses the comma-separated weight vector of the
// /admin/weights endpoint (validation proper — length, sign, sum — is
// the dispatcher's).
func parseWeights(s string) ([]float64, error) {
	if s == "" {
		return nil, fmt.Errorf("missing w (comma-separated weights)")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad weight %q", p)
		}
		out[i] = v
	}
	return out, nil
}
