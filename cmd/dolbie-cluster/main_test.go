package main

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"dolbie/internal/core"
	"dolbie/internal/metrics"
)

// TestRunServesMetrics is the observability acceptance test: a full
// master-worker deployment over a lossy network with -metrics-addr must
// expose, on a live /metrics endpoint, at least ten distinct metric
// families spanning the core layer (cost, alpha, straggler), the
// cluster layer (msgs, bytes, retransmissions), and the process gauges.
func TestRunServesMetrics(t *testing.T) {
	var expo, health string
	testHookScrape = func(addr string) {
		expo = get(t, "http://"+addr+"/metrics")
		health = get(t, "http://"+addr+"/healthz")
	}
	defer func() { testHookScrape = nil }()

	var buf strings.Builder
	args := []string{"-mode", "mw", "-n", "4", "-rounds", "8", "-drop", "0.05", "-metrics-addr", "127.0.0.1:0"}
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v\noutput:\n%s", args, err, buf.String())
	}
	if !strings.Contains(buf.String(), "metrics: http://") {
		t.Errorf("run output does not announce the metrics endpoint:\n%s", buf.String())
	}
	if strings.TrimSpace(health) != "ok" {
		t.Errorf("healthz = %q, want ok", health)
	}

	families := map[string]bool{}
	for _, line := range strings.Split(expo, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families[strings.Fields(rest)[0]] = true
		}
	}
	if len(families) < 10 {
		t.Errorf("scrape has %d metric families, want >= 10:\n%s", len(families), expo)
	}
	for _, fam := range []string{
		// core layer
		core.MetricRounds, core.MetricGlobalCost, core.MetricWorkerCost,
		core.MetricStraggler, core.MetricAlpha, core.MetricBisectionIters,
		// cluster layer (the lossy run registers the reliability counters too)
		"dolbie_cluster_msgs_sent_total", "dolbie_cluster_bytes_sent_total",
		"dolbie_cluster_messages_total", "dolbie_cluster_retransmissions_total",
		// process gauges
		metrics.MetricGoroutines, metrics.MetricHeapAlloc,
	} {
		if !families[fam] {
			t.Errorf("scrape missing family %s", fam)
		}
	}
	if !strings.Contains(expo, core.MetricRounds+" 8") {
		t.Errorf("rounds counter != 8 in scrape:\n%s", expo)
	}
}

// TestRunResilientMetrics covers the fault-tolerance counters through
// the command path: a worker crashed under -round-timeout surfaces on
// /metrics.
func TestRunResilientMetrics(t *testing.T) {
	var expo string
	testHookScrape = func(addr string) { expo = get(t, "http://"+addr+"/metrics") }
	defer func() { testHookScrape = nil }()

	var buf strings.Builder
	args := []string{"-mode", "mw", "-n", "3", "-rounds", "5", "-round-timeout", "300ms",
		"-crash-worker", "1", "-crash-round", "3", "-metrics-addr", "127.0.0.1:0"}
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v\noutput:\n%s", args, err, buf.String())
	}
	if !strings.Contains(buf.String(), "crashed workers (detected and removed): [1]") {
		t.Errorf("resilient run did not report the crash:\n%s", buf.String())
	}
	if !strings.Contains(expo, "dolbie_cluster_workers_crashed_total 1") {
		t.Errorf("scrape missing crash counter:\n%s", expo)
	}
	if !strings.Contains(expo, "# TYPE dolbie_cluster_round_timeouts_total") {
		t.Errorf("scrape missing timeout family:\n%s", expo)
	}
}

// TestRunModes drives both architectures with and without a round
// deadline: without one, a healthy run completes and reports no fault
// section; with one, a crashed node is evicted and the survivors finish.
func TestRunModes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string
		not  []string
	}{
		{"mw", []string{"-mode", "mw", "-n", "4", "-rounds", "6"},
			[]string{"master-worker deployment: 4 workers, 6 rounds"}, []string{"survivors:", "crashed workers"}},
		{"mw deadline", []string{"-mode", "mw", "-n", "4", "-rounds", "8", "-round-timeout", "300ms", "-crash-worker", "2", "-crash-round", "4"},
			[]string{"master-worker deployment: 4 workers, 8 rounds", "crashed workers (detected and removed): [2]", "survivors: [0 1 3]"}, nil},
		{"fd", []string{"-mode", "fd", "-n", "4", "-rounds", "6"},
			[]string{"fully-distributed deployment: 4 peers, 6 rounds", "total traffic: 90 msgs"}, []string{"survivors:", "evicted"}},
		{"fd deadline", []string{"-mode", "fd", "-n", "4", "-rounds", "12", "-round-timeout", "150ms", "-crash-worker", "1", "-crash-round", "5"},
			[]string{"peer 1 evicted in round 5", "peer 1 crashed after 4 rounds", "survivors: [0 2 3]"}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf strings.Builder
			if err := run(tc.args, &buf); err != nil {
				t.Fatalf("run(%v): %v\noutput:\n%s", tc.args, err, buf.String())
			}
			for _, w := range tc.want {
				if !strings.Contains(buf.String(), w) {
					t.Errorf("output lacks %q:\n%s", w, buf.String())
				}
			}
			for _, w := range tc.not {
				if strings.Contains(buf.String(), w) {
					t.Errorf("output has %q:\n%s", w, buf.String())
				}
			}
		})
	}
}

// TestRunRejectsBadFlags keeps the flag validation observable through
// the testable run() entry point.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "1"},
		{"-rounds", "0"},
		{"-mode", "bogus"},
		{"-mode", "resilient"},
		{"-mode", "rfd"},
		{"-round-timeout", "-1s"},
		{"-drop", "0.5", "-tcp"},
		{"-mode", "fd", "-chaos-partition", "0:4:1:2", "-n", "4"},
		{"-crash-worker", "9", "-crash-round", "2"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) = nil error, want failure", args)
		}
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body)
}
