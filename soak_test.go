package dolbie_test

// Long-horizon soak: DOLBIE runs for thousands of rounds of adversarially
// shifting dynamics and the structural invariants must never drift —
// feasibility, non-increasing step size, bounded workloads, finite costs.

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dolbie"
	"dolbie/internal/baselines"
	"dolbie/internal/core"
	"dolbie/internal/costfn"
	"dolbie/internal/simplex"
)

func TestSoakDOLBIEThousandsOfRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		n      = 20
		rounds = 5000
	)
	rng := rand.New(rand.NewSource(123))
	b, err := core.NewBalancer(simplex.Uniform(n), core.WithInitialAlpha(0.01))
	if err != nil {
		t.Fatal(err)
	}

	// Regime-switching adversary: every 50-300 rounds the slope profile
	// is redrawn, occasionally with extreme spreads, zero slopes, and
	// huge intercepts.
	slopes := make([]float64, n)
	intercepts := make([]float64, n)
	redraw := func() {
		scale := math.Pow(10, rng.Float64()*3-1) // 0.1 .. 100
		for i := range slopes {
			slopes[i] = rng.Float64() * scale
			intercepts[i] = 0
			if rng.Intn(4) == 0 {
				intercepts[i] = rng.Float64() * scale
			}
		}
	}
	redraw()
	nextSwitch := 50

	prevAlpha := b.Alpha()
	for round := 1; round <= rounds; round++ {
		if round == nextSwitch {
			redraw()
			nextSwitch += 50 + rng.Intn(250)
		}
		funcs := make([]costfn.Func, n)
		for i := range funcs {
			jitter := 0.9 + 0.2*rng.Float64()
			funcs[i] = costfn.Affine{Slope: slopes[i] * jitter, Intercept: intercepts[i]}
		}
		x := b.Assignment()
		g, costs, err := core.GlobalCost(funcs, x)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(g) || math.IsInf(g, 0) {
			t.Fatalf("round %d: global cost %v", round, g)
		}
		if err := b.Update(core.Observation{Costs: costs, Funcs: funcs}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := simplex.Check(b.Assignment(), 1e-6); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if b.Alpha() > prevAlpha+1e-15 {
			t.Fatalf("round %d: alpha increased %v -> %v", round, prevAlpha, b.Alpha())
		}
		prevAlpha = b.Alpha()
	}
	if b.Round() != rounds {
		t.Errorf("completed %d rounds, want %d", b.Round(), rounds)
	}
}

// soakChaosPeers/soakChaosRounds size the chaos soak below.
const (
	soakChaosPeers  = 5
	soakChaosRounds = 150
)

// soakChaosSources builds the affine costs shared by the chaos soak
// runs: slopes and intercepts grow mildly with the peer id so every
// survivor subset has an interior min-max equilibrium (each peer keeps a
// positive share) and the consensus straggler is never the crash victim
// — the regime the fail-stop protocol supports (DESIGN.md, "Fault
// model").
func soakChaosSources() []dolbie.CostSource {
	sources := make([]dolbie.CostSource, soakChaosPeers)
	for i := range sources {
		f := costfn.Affine{Slope: float64(i + 1), Intercept: 0.2 * float64(i)}
		sources[i] = dolbie.FuncSource(func(round int, x float64) (float64, costfn.Func, error) {
			return f.Eval(x), f, nil
		})
	}
	return sources
}

// soakChaosRun executes one long-horizon fail-stop fully-distributed
// deployment with the given detection deadline, wrapping each MemNet
// node with wrap (identity when nil).
func soakChaosRun(t *testing.T, wrap func(i int, tr dolbie.Transport) dolbie.Transport, roundTimeout time.Duration) []dolbie.ElasticPeerResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	net := dolbie.NewMemNet()
	transports := make([]dolbie.Transport, soakChaosPeers)
	for i := range transports {
		tr := dolbie.Transport(net.Node(i))
		if wrap != nil {
			tr = wrap(i, tr)
		}
		transports[i] = tr
	}
	defer func() {
		for _, tr := range transports {
			tr.Close() //nolint:errcheck // best-effort teardown
		}
	}()
	res, err := dolbie.ElasticDeployment(ctx, transports, dolbie.ElasticDeploymentConfig{
		X0:      simplex.Uniform(soakChaosPeers),
		Rounds:  soakChaosRounds,
		Sources: soakChaosSources(),
		Peer:    dolbie.ElasticPeerConfig{RoundTimeout: roundTimeout},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSoakChaosFullyDistributed is the chaos soak: the fail-stop
// tolerant fully-distributed deployment runs a long horizon under each
// supported chaos regime. Under sustained message loss (drops,
// duplicates, reordering beneath a Reliable wrapper) the trajectory must
// stay bit-for-bit the fault-free one; under a clean mid-run fail-stop
// crash the survivors must evict the victim and reabsorb its workload
// share within five rounds, holding the simplex invariant throughout.
// The two regimes are soaked separately because combining them is
// outside the protocol's fault model: a victim that dies with dropped
// frames still awaiting retransmission strands its peers in different
// rounds, and the symmetric detection deadlines then race (see the
// fault model in DESIGN.md). Run under -race via `make test`.
func TestSoakChaosFullyDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	reference := soakChaosRun(t, nil, 2*time.Second)

	t.Run("lossy", func(t *testing.T) {
		chaos := dolbie.NewChaos(dolbie.ChaosConfig{
			Seed:          99,
			DropProb:      0.15,
			DuplicateProb: 0.1,
			ReorderProb:   0.1,
			Jitter:        200 * time.Microsecond,
		})
		res := soakChaosRun(t, func(i int, tr dolbie.Transport) dolbie.Transport {
			return dolbie.NewReliable(i, chaos.Wrap(i, tr), 5*time.Millisecond)
		}, 10*time.Second)

		stats := chaos.Stats()
		if stats.Drops == 0 || stats.Duplicates == 0 || stats.Reorders == 0 {
			t.Errorf("chaos injected too little: %+v", stats)
		}
		for i, pr := range res {
			if pr.Rounds != soakChaosRounds || pr.Crashed || pr.SelfEvicted || len(pr.Evicted) != 0 {
				t.Fatalf("peer %d did not complete cleanly: %+v", i, pr)
			}
			// The reliability layer must mask every injected fault exactly:
			// same shares, to the last bit, as the fault-free run.
			for r := range pr.Played {
				if pr.Played[r] != reference[i].Played[r] {
					t.Fatalf("peer %d round %d: played %v, fault-free run played %v",
						i, r+1, pr.Played[r], reference[i].Played[r])
				}
			}
		}
	})

	t.Run("crash", func(t *testing.T) {
		const (
			victim     = 2
			crashRound = 75
		)
		chaos := dolbie.NewChaos(dolbie.ChaosConfig{
			Seed:    99,
			Crashes: []dolbie.ChaosCrash{{Node: victim, Round: crashRound}},
		})
		res := soakChaosRun(t, func(i int, tr dolbie.Transport) dolbie.Transport {
			return chaos.Wrap(i, tr)
		}, 150*time.Millisecond)

		if got := chaos.Stats().Crashes; got != 1 {
			t.Errorf("chaos crashes = %d, want 1", got)
		}
		// The victim fail-stops the moment it tries to send its
		// crash-round share: it completes exactly crashRound-1 rounds.
		if !res[victim].Crashed {
			t.Errorf("peer %d: Crashed = false, want true", victim)
		}
		if res[victim].Rounds != crashRound-1 {
			t.Errorf("peer %d completed %d rounds, want %d", victim, res[victim].Rounds, crashRound-1)
		}
		detection := 0
		for i, pr := range res {
			if i == victim {
				continue
			}
			if pr.Rounds != soakChaosRounds {
				t.Fatalf("survivor %d completed %d rounds, want %d", i, pr.Rounds, soakChaosRounds)
			}
			if pr.Crashed || pr.SelfEvicted {
				t.Errorf("survivor %d: Crashed=%v SelfEvicted=%v", i, pr.Crashed, pr.SelfEvicted)
			}
			if len(pr.Survivors) != soakChaosPeers-1 {
				t.Errorf("survivor %d: final peer set %v, want %d survivors", i, pr.Survivors, soakChaosPeers-1)
			}
			r, ok := pr.EvictionRound[victim]
			if !ok {
				t.Fatalf("survivor %d never evicted peer %d", i, victim)
			}
			if r < crashRound {
				t.Errorf("survivor %d evicted peer %d in round %d, before the crash round %d", i, victim, r, crashRound)
			}
			if detection == 0 || r < detection {
				detection = r
			}
		}

		// Every played share must be a valid simplex coordinate and every
		// realized cost finite, across both regimes.
		for i, pr := range res {
			for r, x := range pr.Played {
				if x < -1e-9 || x > 1+1e-9 || math.IsNaN(x) {
					t.Fatalf("peer %d round %d: played %v outside [0,1]", i, r+1, x)
				}
			}
			for r, c := range pr.Costs {
				if math.IsNaN(c) || math.IsInf(c, 0) {
					t.Fatalf("peer %d round %d: cost %v", i, r+1, c)
				}
			}
		}
		// Before the crash the full deployment plays a point of the
		// simplex.
		for r := 1; r < crashRound; r++ {
			var sum float64
			for _, pr := range res {
				sum += pr.Played[r-1]
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Fatalf("round %d: shares sum to %v, want 1", r, sum)
			}
		}
		// After detection the survivors must reabsorb the victim's share
		// within five rounds and then hold the simplex for the rest of
		// the run.
		survivorSum := func(r int) float64 {
			var sum float64
			for i, pr := range res {
				if i != victim {
					sum += pr.Played[r-1]
				}
			}
			return sum
		}
		reabsorbed := 0
		for r := detection; r <= soakChaosRounds; r++ {
			if math.Abs(survivorSum(r)-1) < 1e-9 {
				reabsorbed = r
				break
			}
		}
		if reabsorbed == 0 {
			t.Fatalf("survivors never reabsorbed peer %d's share", victim)
		}
		if reabsorbed > detection+5 {
			t.Errorf("reabsorbed in round %d, want within 5 rounds of detection round %d", reabsorbed, detection)
		}
		for r := reabsorbed; r <= soakChaosRounds; r++ {
			if math.Abs(survivorSum(r)-1) > 1e-6 {
				t.Fatalf("round %d: survivor shares sum to %v after rebalancing", r, survivorSum(r))
			}
		}
	})
}

// TestSoakAllBaselinesRegimeSwitches subjects every baseline to the same
// adversary for a shorter horizon.
func TestSoakAllBaselinesRegimeSwitches(t *testing.T) {
	const (
		n      = 12
		rounds = 1500
	)
	rng := rand.New(rand.NewSource(7))
	x0 := simplex.Uniform(n)
	equ, _ := baselines.NewEqual(n)
	ogd, _ := baselines.NewOGD(x0, 0.001)
	abs, _ := baselines.NewABS(x0, 5)
	lbbsp, _ := baselines.NewLBBSP(x0, 5.0/256, 5)
	dol, _ := core.NewBalancer(x0, core.WithInitialAlpha(0.001), core.WithStepRuleScale(256))
	algs := []core.Algorithm{equ, ogd, abs, lbbsp, dol}

	slopes := make([]float64, n)
	for i := range slopes {
		slopes[i] = 0.5 + rng.Float64()*6
	}
	for round := 1; round <= rounds; round++ {
		if round%200 == 0 {
			for i := range slopes {
				slopes[i] = 0.5 + rng.Float64()*6
			}
		}
		funcs := make([]costfn.Func, n)
		for i := range funcs {
			funcs[i] = costfn.Affine{Slope: slopes[i], Intercept: 0.02 * float64(i%3)}
		}
		for _, alg := range algs {
			x := alg.Assignment()
			if err := simplex.Check(x, 1e-6); err != nil {
				t.Fatalf("round %d %s: %v", round, alg.Name(), err)
			}
			_, costs, err := core.GlobalCost(funcs, x)
			if err != nil {
				t.Fatal(err)
			}
			if err := alg.Update(core.Observation{Costs: costs, Funcs: funcs}); err != nil {
				t.Fatalf("round %d %s: %v", round, alg.Name(), err)
			}
		}
	}
}

// TestSoakJoinChurnElastic soaks the elastic membership runtime under
// combined churn: two workers join a running flat deployment at fixed
// rounds, and an incumbent is chaos-crashed after both admissions. The
// invariants under test are (1) roster-version monotonicity — every
// peer's membership event log carries strictly increasing versions —
// and (2) bit-for-bit determinism: two identically-seeded runs must
// produce identical trajectories, costs, and membership histories,
// because every churn event is round-gated, never wall-clock-gated.
func TestSoakJoinChurnElastic(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		incumbents = 4
		joiners    = 2
		rounds     = 120
		victim     = 2
		crashRound = 90
	)
	peers := incumbents + joiners

	run := func() []dolbie.ElasticPeerResult {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		chaos := dolbie.NewChaos(dolbie.ChaosConfig{
			Seed:    99,
			Crashes: []dolbie.ChaosCrash{{Node: victim, Round: crashRound}},
		})
		net := dolbie.NewMemNet()
		transports := make([]dolbie.Transport, peers)
		for i := range transports {
			transports[i] = chaos.Wrap(i, net.Node(i))
		}
		defer func() {
			for _, tr := range transports {
				tr.Close() //nolint:errcheck // best-effort teardown
			}
		}()
		sources := make([]dolbie.CostSource, peers)
		for i := range sources {
			f := dolbie.Affine{Slope: float64(i + 1), Intercept: 0.2 * float64(i)}
			sources[i] = dolbie.FuncSource(func(round int, x float64) (float64, dolbie.CostFunc, error) {
				return f.Eval(x), f, nil
			})
		}
		res, err := dolbie.ElasticDeployment(ctx, transports, dolbie.ElasticDeploymentConfig{
			X0:      dolbie.Uniform(incumbents),
			Rounds:  rounds,
			Sources: sources[:incumbents],
			Joiners: []dolbie.ElasticJoin{
				{ID: incumbents, Contact: 0, Round: 30, Source: sources[incumbents]},
				{ID: incumbents + 1, Contact: 1, Round: 60, Source: sources[incumbents+1]},
			},
			Peer: dolbie.ElasticPeerConfig{RoundTimeout: 200 * time.Millisecond},
		})
		if err != nil {
			t.Fatalf("elastic deployment: %v", err)
		}
		if got := chaos.Stats().Crashes; got != 1 {
			t.Fatalf("chaos crashes = %d, want 1", got)
		}
		return res
	}

	first := run()
	second := run()

	// Structural outcome: both joiners admitted and running to the end,
	// the victim crashed after both admissions, every other peer
	// finishing the full run over the final five-member roster.
	if !first[victim].Crashed {
		t.Errorf("victim %d: Crashed = false, want true", victim)
	}
	for i, pr := range first {
		if i == victim {
			continue
		}
		if pr.Rounds != rounds {
			t.Errorf("peer %d completed %d rounds, want %d", i, pr.Rounds, rounds)
		}
		if pr.Crashed || pr.SelfEvicted {
			t.Errorf("peer %d: Crashed=%v SelfEvicted=%v", i, pr.Crashed, pr.SelfEvicted)
		}
		if got := len(pr.Survivors); got != peers-1 {
			t.Errorf("peer %d: final peer set %v, want %d members", i, pr.Survivors, peers-1)
		}
		if r, ok := pr.EvictionRound[victim]; !ok || r < crashRound {
			t.Errorf("peer %d evicted the victim in round %d (ok=%v), want >= %d", i, r, ok, crashRound)
		}
	}
	for _, j := range []int{incumbents, incumbents + 1} {
		if first[j].FirstRound == 0 || first[j].FirstRound > rounds {
			t.Errorf("joiner %d first round = %d", j, first[j].FirstRound)
		}
	}

	// Invariant 1: roster versions are strictly monotone in every peer's
	// event log, and every log ends at the peer's final roster version.
	for i, pr := range first {
		var last uint64
		for _, ev := range pr.RosterLog {
			if ev.Version <= last {
				t.Fatalf("peer %d roster log not monotone: version %d after %d (%+v)",
					i, ev.Version, last, pr.RosterLog)
			}
			last = ev.Version
		}
		if len(pr.RosterLog) > 0 && last != pr.RosterVersion {
			t.Errorf("peer %d: log ends at version %d, final roster version %d", i, last, pr.RosterVersion)
		}
	}

	// Invariant 2: identically-seeded runs are bit-for-bit identical —
	// trajectories, costs, admission history, and membership logs.
	for i := range first {
		a, b := first[i], second[i]
		if !reflect.DeepEqual(a.Played, b.Played) {
			t.Fatalf("peer %d: Played diverged between identically-seeded runs", i)
		}
		if !reflect.DeepEqual(a.Costs, b.Costs) {
			t.Fatalf("peer %d: Costs diverged between identically-seeded runs", i)
		}
		if !reflect.DeepEqual(a.RosterLog, b.RosterLog) {
			t.Fatalf("peer %d: RosterLog diverged: %+v vs %+v", i, a.RosterLog, b.RosterLog)
		}
		if a.RosterVersion != b.RosterVersion || a.FirstRound != b.FirstRound ||
			!reflect.DeepEqual(a.Admitted, b.Admitted) ||
			!reflect.DeepEqual(a.AdmissionRound, b.AdmissionRound) {
			t.Fatalf("peer %d: membership outcome diverged between identically-seeded runs", i)
		}
	}

	// The final roster plays a point of the simplex.
	var sum float64
	for i, pr := range first {
		if i == victim {
			continue
		}
		sum += pr.Played[len(pr.Played)-1]
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("final round: survivor shares sum to %v, want 1", sum)
	}
}
