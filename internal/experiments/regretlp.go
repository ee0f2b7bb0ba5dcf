package experiments

import (
	"fmt"

	"dolbie/internal/baselines"
	"dolbie/internal/core"
	"dolbie/internal/optimum"
	"dolbie/internal/simplex"
)

// lpStepAlpha is the LPSTEP tracker's initial step size in this figure.
// The tracker moves alpha_1/sqrt(t) of the way to the revealed
// instantaneous minimizer each round, so it tolerates — and needs — a
// much larger alpha_1 than DOLBIE's multiplicative step rule (the
// iterate is always a convex combination of simplex points and cannot
// leave the feasible set).
const lpStepAlpha = 0.5

// RegretLp extends the regret comparison to the lp-norm objective
// family: it replays one paired realization of the simulated cluster
// and accumulates each algorithm's dynamic regret measured under the
// l2 objective (sum_i f_i(x_i)^2)^(1/2), against the per-round l2
// minimizers from optimum.SolveLp's marginal water-filling. LPSTEP(l2)
// optimizes the objective being scored and should flatten; DOLBIE and
// LPSTEP(minmax) chase the makespan instead, so their l2 regret keeps
// growing at whatever rate the gap between the two optima dictates —
// the empirical picture of what choosing a tenant objective in the
// serving API actually trades away.
func RegretLp(cfg Config) (Figure, error) {
	if err := cfg.validate(); err != nil {
		return Figure{}, err
	}
	obj := optimum.Lp(2)
	// Pre-realize the environments so every algorithm sees the identical
	// instance and the per-round l2 optima are computed once.
	cl, err := cfg.cluster(0, cfg.Model)
	if err != nil {
		return Figure{}, err
	}
	optVals := make([]float64, cfg.Rounds)
	for t := range optVals {
		res, err := obj.Solve(cl.NextEnv().Funcs, 0)
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
	dolbie, err := core.NewBalancer(x0,
		core.WithInitialAlpha(cfg.Alpha1),
		core.WithStepRuleScale(float64(cfg.BatchSize)))
	if err != nil {
		return Figure{}, err
	}
	lp2, err := core.NewLpBalancer(x0, obj, lpStepAlpha)
	if err != nil {
		return Figure{}, err
	}
	lpMax, err := core.NewLpBalancer(x0, optimum.MinMax(), lpStepAlpha)
	if err != nil {
		return Figure{}, err
	}

	fig := Figure{
		ID: "regretlp",
		Title: fmt.Sprintf("Cumulative dynamic regret under the l2 objective (%s, N=%d)",
			cfg.Model.Name, cfg.N),
		XLabel: "round",
		YLabel: "cumulative l2 regret (s)",
	}
	xs := roundGrid(cfg.Rounds)
	finals := map[string]float64{}
	score := func(_ int, latency []float64) float64 { return obj.Global(latency) }
	for _, alg := range []core.Algorithm{equ, dolbie, lpMax, lp2} {
		ys, err := replayRegret(cfg, alg, optVals, score)
		if err != nil {
			return Figure{}, fmt.Errorf("experiments: %s: %w", alg.Name(), err)
		}
		fig.Series = append(fig.Series, Series{Name: alg.Name(), X: xs, Y: ys})
		finals[alg.Name()] = ys[len(ys)-1]
	}

	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"final cumulative l2 regret: EQU %.1f, DOLBIE %.1f, LPSTEP(minmax) %.1f, LPSTEP(l2) %.1f",
		finals["EQU"], finals["DOLBIE"], finals["LPSTEP(minmax)"], finals["LPSTEP(l2)"]))
	if finals["LPSTEP(l2)"] < finals["DOLBIE"] && finals["LPSTEP(l2)"] < finals["EQU"] {
		fig.Notes = append(fig.Notes,
			"LPSTEP(l2) accumulates the least l2 regret — matching the scored objective beats tracking the makespan")
	} else {
		fig.Notes = append(fig.Notes,
			"WARNING: LPSTEP(l2) did not dominate the minmax trackers under its own objective on this realization")
	}
	fig.Notes = append(fig.Notes,
		"the serving API exposes this same choice per tenant: TenantConfig.Objective selects minmax (the paper) "+
			"or an lp order, and each tenant's controller tracks its own objective's optimum")
	return fig, nil
}
