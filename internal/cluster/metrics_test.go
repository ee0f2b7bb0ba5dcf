package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/costfn"
	"dolbie/internal/metrics"
	"dolbie/internal/simplex"
	"dolbie/internal/wire"
)

// affineSources builds n synthetic cost sources with heterogeneous
// affine latency slopes.
func affineSources(n int) []CostSource {
	sources := make([]CostSource, n)
	for i := range sources {
		f := costfn.Affine{Slope: float64(i + 1), Intercept: 0.01}
		sources[i] = FuncSource(func(_ int, x float64) (float64, costfn.Func, error) {
			return f.Eval(x), f, nil
		})
	}
	return sources
}

// TestMeterFeedsRegistry verifies that an instrumented meter populates
// the per-node and per-kind counter families alongside the TrafficStats
// snapshot.
func TestMeterFeedsRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	net := NewMemNet()
	a := NewInstrumentedMeter(net.Node(0), reg, "a")
	b := NewInstrumentedMeter(net.Node(1), reg, "b")

	env := wire.NewEnvelope(0, 1, core.CostReport{Round: 1, From: 0, Cost: 0.5})
	ctx := context.Background()
	if _, err := a.Send(ctx, 1, env); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Recv(ctx); err != nil {
		t.Fatal(err)
	}

	stats := a.Stats()
	if stats.MsgsSent != 1 || stats.BytesSent == 0 {
		t.Fatalf("snapshot stats = %+v, want 1 msg sent", stats)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	for _, want := range []string{
		MetricMsgsSent + `{node="a"} 1`,
		MetricMsgsReceived + `{node="b"} 1`,
		MetricMessages + `{kind="cost",dir="sent"} 1`,
		MetricMessages + `{kind="cost",dir="received"} 1`,
		fmt.Sprintf("%s{node=%q} %d", MetricBytesSent, "a", stats.BytesSent),
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q:\n%s", want, expo)
		}
	}
}

// TestDeploymentMetricsEndToEnd runs a real master-worker deployment on
// a memnet with a shared registry, serves it over HTTP, and scrapes
// /metrics like a Prometheus server would — verifying that families
// from both the core layer (cost, alpha, straggler) and the cluster
// layer (msgs, bytes) are live on the wire.
func TestDeploymentMetricsEndToEnd(t *testing.T) {
	const n, rounds = 4, 10
	reg := metrics.NewRegistry()
	srv, err := metrics.StartServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	net := NewMemNet()
	transports := make([]Transport, n+1)
	for i := range transports {
		transports[i] = net.Node(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	masterRes, _, err := MasterWorkerDeployment(ctx, transports, simplex.Uniform(n), rounds,
		affineSources(n), core.WithInitialAlpha(0.05), core.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	expo := string(raw)

	for _, fam := range []string{
		core.MetricRounds, core.MetricGlobalCost, core.MetricWorkerCost,
		core.MetricStraggler, core.MetricAlpha, core.MetricBisectionIters,
		MetricMsgsSent, MetricMsgsReceived, MetricBytesSent, MetricBytesReceived,
		MetricMessages,
	} {
		if !strings.Contains(expo, "# TYPE "+fam) {
			t.Errorf("scrape missing family %s", fam)
		}
	}
	if !strings.Contains(expo, core.MetricRounds+" "+fmt.Sprint(rounds)) {
		t.Errorf("rounds counter != %d in scrape:\n%s", rounds, expo)
	}
	// The registry's view of master traffic must agree with the
	// deployment's own TrafficStats snapshot.
	want := fmt.Sprintf("%s{node=%q} %d", MetricMsgsSent, "master", masterRes.Traffic.MsgsSent)
	if !strings.Contains(expo, want) {
		t.Errorf("scrape missing %q", want)
	}
}

// TestResilientMetrics verifies the fault-tolerance counters: a crashed
// worker must surface as a round timeout and a crash detection.
func TestResilientMetrics(t *testing.T) {
	const n, rounds = 3, 6
	reg := metrics.NewRegistry()
	net := NewMemNet()
	transports := make([]Transport, n+1)
	for i := range transports {
		transports[i] = net.Node(i)
	}
	sources := affineSources(n)
	// Worker 2 fail-stops at round 3.
	inner := sources[2]
	sources[2] = FuncSource(func(round int, x float64) (float64, costfn.Func, error) {
		if round >= 3 {
			return 0, nil, fmt.Errorf("fail-stop at round %d", round)
		}
		return inner.Observe(round, x)
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		go func(i int) {
			//nolint:errcheck // the crashing worker exits with an error by design
			RunWorker(ctx, transports[i], i, n, 1.0/n, rounds, sources[i])
		}(i)
	}
	res, err := RunMaster(ctx, transports[n], simplex.Uniform(n), rounds,
		MasterConfig{RoundTimeout: 200 * time.Millisecond}, core.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Crashed) == 0 {
		t.Fatal("expected a crash detection")
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	if !strings.Contains(expo, MetricWorkersCrashed+" 1") {
		t.Errorf("crash counter missing or wrong:\n%s", expo)
	}
	if !strings.Contains(expo, MetricRoundTimeouts+" 1") {
		t.Errorf("timeout counter missing or wrong:\n%s", expo)
	}
	if !strings.Contains(expo, "# TYPE "+core.MetricAlpha) {
		t.Errorf("fail-stop master did not export core families:\n%s", expo)
	}
}
