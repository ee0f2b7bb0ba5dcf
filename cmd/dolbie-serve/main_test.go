package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestRunSimulationDeterministic(t *testing.T) {
	args := []string{"-n", "4", "-rounds", "20", "-rate", "60", "-json"}
	var a, b strings.Builder
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("identical invocations diverged:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), `"policy": "dolbie"`) {
		t.Errorf("unexpected output: %s", a.String())
	}
}

func TestRunCompare(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-compare", "-n", "4", "-rounds", "20", "-rate", "60"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dolbie", "wrr", "jsq", "p99max"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunFlagErrors(t *testing.T) {
	// A live-mode case that got past the flag checks would serve; fail
	// rather than block on the interrupt wait.
	defer func() { testHookServe = nil }()
	testHookServe = func(addr string) { t.Errorf("live mode started on %s", addr) }
	for _, args := range [][]string{
		{"-shed", "nope"},
		{"-policy", "nope"},
		{"-n", "0"},
		{"-rounds", "20", "-util", "9"},
		{"-rounds", "1", "-rate", "Inf"},
		{"-rounds", "1", "-round-dur", "Inf"},
		{"-rounds", "1", "-demand", "Inf"},
		{"-rounds", "1", "-util", "NaN"},
		{"-http-addr", "127.0.0.1:0", "-batch", "8", "-shed", "block"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestRunLiveHTTP(t *testing.T) {
	defer func() { testHookServe = nil }()
	testHookServe = func(addr string) {
		resp, err := http.Post("http://"+addr+"/ingest?demand=2", "", nil)
		if err != nil {
			t.Errorf("ingest: %v", err)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 || !strings.Contains(string(body), `"outcome":"routed"`) {
			t.Errorf("ingest response %d %s", resp.StatusCode, body)
		}
		scrape, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Errorf("scrape: %v", err)
			return
		}
		defer scrape.Body.Close()
		text, _ := io.ReadAll(scrape.Body)
		if !strings.Contains(string(text), "dolbie_dispatch_arrivals_total 1") {
			t.Errorf("metrics scrape missing dispatch family:\n%.400s", text)
		}
	}
	var out strings.Builder
	if err := run([]string{"-http-addr", "127.0.0.1:0", "-n", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "/ingest") {
		t.Errorf("live mode output: %s", out.String())
	}
}

// TestRunLiveAdmin exercises the live mode's operational surface end to
// end over the socket: admin status, a drain/resume cycle (ingest must
// refuse 503 + Retry-After 5 while draining and admit again after
// resume), a shed-policy hot reload visible in /admin/status, and the
// dolbie_dispatch_live_* family on the scrape. The shutdown path after
// the hook returns is the graceful drain exercised by every run.
func TestRunLiveAdmin(t *testing.T) {
	defer func() { testHookServe = nil }()
	testHookServe = func(addr string) {
		base := "http://" + addr
		post := func(path string) (int, string) {
			resp, err := http.Post(base+path, "", nil)
			if err != nil {
				t.Fatalf("POST %s: %v", path, err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, string(body)
		}

		if code, body := post("/admin/drain"); code != 200 || !strings.Contains(body, `"draining": true`) {
			t.Errorf("drain: %d %s", code, body)
		}
		resp, err := http.Post(base+"/ingest", "", nil)
		if err != nil {
			t.Fatalf("ingest while draining: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 503 || resp.Header.Get("Retry-After") != "5" {
			t.Errorf("draining ingest: status %d Retry-After %q, want 503 and 5",
				resp.StatusCode, resp.Header.Get("Retry-After"))
		}
		if code, body := post("/admin/resume"); code != 200 || !strings.Contains(body, `"draining": false`) {
			t.Errorf("resume: %d %s", code, body)
		}
		if code, body := post("/ingest?demand=0.001"); code != 200 || !strings.Contains(body, `"outcome":"routed"`) {
			t.Errorf("post-resume ingest: %d %s", code, body)
		}

		if code, body := post("/admin/shed?policy=block"); code != 200 || !strings.Contains(body, `"shed": "block"`) {
			t.Errorf("shed reload: %d %s", code, body)
		}
		if code, body := post("/admin/shed?policy=bogus"); code != 400 {
			t.Errorf("bogus shed policy: %d %s, want 400", code, body)
		}

		scrape, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatalf("scrape: %v", err)
		}
		defer scrape.Body.Close()
		text, _ := io.ReadAll(scrape.Body)
		for _, want := range []string{
			"dolbie_dispatch_live_drains_total 1",
			`dolbie_dispatch_live_reloads_total{knob="shed"} 1`,
			"dolbie_dispatch_live_inflight",
		} {
			if !strings.Contains(string(text), want) {
				t.Errorf("metrics scrape missing %q:\n%.600s", want, text)
			}
		}
	}
	var out strings.Builder
	if err := run([]string{"-http-addr", "127.0.0.1:0", "-n", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "/admin/status") {
		t.Errorf("live mode output: %s", out.String())
	}
}
