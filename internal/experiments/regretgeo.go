package experiments

import (
	"fmt"

	"dolbie/internal/baselines"
	"dolbie/internal/core"
	"dolbie/internal/costfn"
	"dolbie/internal/geo"
	"dolbie/internal/optimum"
	"dolbie/internal/simplex"
)

// geoDgdEta is the DGD baseline's learning rate in this figure, matching
// the serving path's default controller step.
const geoDgdEta = 0.05

// RegretGeo scores the geo-distributed serving question as a regret
// figure: workers live in the heterogeneous three-region topology, every
// per-round cost is penalized by the evolving frontend→worker RTT, and
// each algorithm's cumulative dynamic regret is measured against the
// per-round minimizer of the true penalized min-max objective.
//
// Four series tell the story. EQU ignores feedback entirely. DGD
// (Balseiro–Mirrokni–Wydrowski) descends the aggregate traffic-weighted
// penalized cost — their objective, not the paper's — with the serving
// default's much larger step, so it converges fast but to the average's
// optimizer rather than the straggler's. DOLBIE(blind) is the ablation
// the geo bench also runs: the paper's algorithm fed latency-blind
// observations, chasing drain costs while being scored on drain + RTT.
// DOLBIE sees the RTT-penalized costs — exactly what ServeConfig.Geo
// feeds the serving loop — and the headline comparison is DOLBIE vs
// DOLBIE(blind): the RTT-aware feed must accumulate less regret.
func RegretGeo(cfg Config) (Figure, error) {
	if err := cfg.validate(); err != nil {
		return Figure{}, err
	}
	gcfg := geo.ThreeRegions(cfg.N, cfg.Seed)
	matrix, err := geo.NewMatrix(gcfg)
	if err != nil {
		return Figure{}, err
	}
	// Pre-realize the paired instance: one cluster realization and one
	// topology realization, shared by every algorithm, with the true
	// penalized per-round optima computed once.
	cl, err := cfg.cluster(0, cfg.Model)
	if err != nil {
		return Figure{}, err
	}
	pens := make([][]float64, cfg.Rounds)
	penFuncs := make([][]costfn.Func, cfg.Rounds)
	optVals := make([]float64, cfg.Rounds)
	for t := range optVals {
		env := cl.NextEnv()
		matrix.Advance()
		pens[t] = make([]float64, cfg.N)
		penFuncs[t] = make([]costfn.Func, cfg.N)
		for i := 0; i < cfg.N; i++ {
			pens[t][i] = matrix.FrontendRTT(i)
			penFuncs[t][i] = costfn.Sum{env.Funcs[i], costfn.Affine{Intercept: pens[t][i]}}
		}
		res, err := optimum.Solve(penFuncs[t], 0)
		if err != nil {
			return Figure{}, err
		}
		optVals[t] = res.Value
	}

	x0 := simplex.Uniform(cfg.N)
	equ, err := baselines.NewEqual(cfg.N)
	if err != nil {
		return Figure{}, err
	}
	dgd, err := baselines.NewDGD(x0, geoDgdEta)
	if err != nil {
		return Figure{}, err
	}
	newDolbie := func() (core.Algorithm, error) {
		return core.NewBalancer(x0,
			core.WithInitialAlpha(cfg.Alpha1),
			core.WithStepRuleScale(float64(cfg.BatchSize)))
	}
	blind, err := newDolbie()
	if err != nil {
		return Figure{}, err
	}
	aware, err := newDolbie()
	if err != nil {
		return Figure{}, err
	}

	fig := Figure{
		ID: "regretgeo",
		Title: fmt.Sprintf("Cumulative dynamic regret under RTT-penalized min-max (%s, N=%d, 3 regions)",
			cfg.Model.Name, cfg.N),
		XLabel: "round",
		YLabel: "cumulative penalized regret (s)",
	}
	xs := roundGrid(cfg.Rounds)
	finals := map[string]float64{}
	// The score is always the penalized min-max cost
	// max_i (l_{i,t} + RTT_{i,t}); every algorithm but the latency-blind
	// ablation is also fed the penalized costs.
	score := func(t int, latency []float64) float64 {
		realized := 0.0
		for i, l := range latency {
			if eff := l + pens[t][i]; eff > realized {
				realized = eff
			}
		}
		return realized
	}
	penalized := func(alg core.Algorithm) core.Algorithm {
		return &rttFeedback{Algorithm: alg, pens: pens, penFuncs: penFuncs}
	}
	for _, entry := range []struct {
		name string
		alg  core.Algorithm
	}{
		{"EQU", penalized(equ)},
		{"DGD", penalized(dgd)},
		{"DOLBIE(blind)", blind},
		{"DOLBIE", penalized(aware)},
	} {
		ys, err := replayRegret(cfg, entry.alg, optVals, score)
		if err != nil {
			return Figure{}, fmt.Errorf("experiments: %s: %w", entry.name, err)
		}
		fig.Series = append(fig.Series, Series{Name: entry.name, X: xs, Y: ys})
		finals[entry.name] = ys[len(ys)-1]
	}

	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"final cumulative penalized regret: EQU %.1f, DGD %.1f, DOLBIE(blind) %.1f, DOLBIE %.1f",
		finals["EQU"], finals["DGD"], finals["DOLBIE(blind)"], finals["DOLBIE"]))
	if finals["DOLBIE"] < finals["DOLBIE(blind)"] {
		fig.Notes = append(fig.Notes,
			"RTT-aware DOLBIE beats the latency-blind ablation — penalizing the fed-back costs is what ServeConfig.Geo buys")
	} else {
		fig.Notes = append(fig.Notes,
			"WARNING: latency-blind DOLBIE matched the RTT-aware loop on this realization")
	}
	if finals["DOLBIE"] < finals["DGD"] {
		fig.Notes = append(fig.Notes,
			"DGD pays for descending the traffic-weighted average while the score is the straggler's max")
	}
	return fig, nil
}

// rttFeedback feeds an algorithm each round's RTT-penalized costs and
// cost functions instead of the drain costs alone, as ServeConfig.Geo
// feeds the serving loop.
type rttFeedback struct {
	core.Algorithm
	pens     [][]float64
	penFuncs [][]costfn.Func
	t        int
}

// Update implements core.Algorithm.
func (a *rttFeedback) Update(obs core.Observation) error {
	t := a.t
	a.t++
	costs := make([]float64, len(obs.Costs))
	for i, c := range obs.Costs {
		costs[i] = c + a.pens[t][i]
	}
	return a.Algorithm.Update(core.Observation{Costs: costs, Funcs: a.penFuncs[t]})
}
