package experiments

import (
	"fmt"

	"dolbie/internal/baselines"
	"dolbie/internal/core"
	"dolbie/internal/costfn"
	"dolbie/internal/mlsim"
	"dolbie/internal/optimum"
	"dolbie/internal/simplex"
)

// RegretComparison plots the cumulative dynamic regret
// sum_{t<=T} (f_t(x_t) - f_t(x_t^*)) of every algorithm against the
// per-round instantaneous minimizers, on one paired realization of the
// simulated cluster. The paper analyzes only DOLBIE's regret (Theorem 1);
// this extension makes the comparison empirical: OPT's regret is zero by
// definition and DOLBIE's curve should flatten once it has locked onto
// the optimum while EQU's grows linearly.
func RegretComparison(cfg Config) (Figure, error) {
	if err := cfg.validate(); err != nil {
		return Figure{}, err
	}
	// Realize the environments once for the per-round optima and the best
	// fixed allocation; each algorithm replays its own realization-0
	// cluster (replayRegret).
	cl, err := cfg.cluster(0, cfg.Model)
	if err != nil {
		return Figure{}, err
	}
	envs := make([]mlsim.Env, cfg.Rounds)
	optVals := make([]float64, cfg.Rounds)
	for t := range envs {
		envs[t] = cl.NextEnv()
		res, err := optimum.Solve(envs[t].Funcs, 0)
		if err != nil {
			return Figure{}, err
		}
		optVals[t] = res.Value
	}

	algs, err := cfg.newAlgorithms()
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID: "regretcmp",
		Title: fmt.Sprintf("Cumulative dynamic regret vs instantaneous minimizers (%s, N=%d)",
			cfg.Model.Name, cfg.N),
		XLabel: "round",
		YLabel: "cumulative regret (s)",
	}
	xs := roundGrid(cfg.Rounds)
	finals := map[string]float64{}
	minmax := optimum.MinMax()
	score := func(_ int, latency []float64) float64 { return minmax.Global(latency) }
	for k, alg := range algs {
		ys, err := replayRegret(cfg, alg, optVals, score)
		if err != nil {
			return Figure{}, fmt.Errorf("experiments: %s: %w", alg.Name(), err)
		}
		fig.Series = append(fig.Series, Series{Name: AlgorithmNames[k], X: xs, Y: ys})
		finals[AlgorithmNames[k]] = ys[len(ys)-1]
	}
	// The serving data plane's join-shortest-queue policy competes here in
	// its workload-partition form: greedy equalization of EWMA-smoothed
	// queues. It reacts faster than DOLBIE but chases whatever fluctuation
	// survives the smoothing, so its regret need not flatten.
	jsq, err := baselines.NewJSQ(simplex.Uniform(cfg.N), 0.9, 0.05)
	if err != nil {
		return Figure{}, err
	}
	jsqYs, err := replayRegret(cfg, jsq, optVals, score)
	if err != nil {
		return Figure{}, fmt.Errorf("experiments: %s: %w", jsq.Name(), err)
	}
	fig.Series = append(fig.Series, Series{Name: jsq.Name(), X: xs, Y: jsqYs})
	finals[jsq.Name()] = jsqYs[len(jsqYs)-1]
	// The best fixed allocation in hindsight (the static-regret
	// comparator) completes the picture: DOLBIE should also beat it on a
	// dynamic instance, since a fixed point cannot track the fluctuation.
	perRound := make([][]costfn.Func, len(envs))
	for t := range envs {
		perRound[t] = envs[t].Funcs
	}
	static, err := optimum.SolveStatic(perRound, 0)
	if err != nil {
		return Figure{}, err
	}
	staticYs := make([]float64, len(envs))
	var cum float64
	for t, env := range envs {
		best := 0.0
		for i, f := range env.Funcs {
			if v := f.Eval(static.X[i]); v > best {
				best = v
			}
		}
		cum += best - optVals[t]
		staticYs[t] = cum
	}
	fig.Series = append(fig.Series, Series{Name: "BestFixed", X: xs, Y: staticYs})
	finals["BestFixed"] = staticYs[len(staticYs)-1]

	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"final cumulative regret: EQU %.1f, OGD %.1f, ABS %.1f, LB-BSP %.1f, JSQ %.1f, DOLBIE %.1f, BestFixed %.1f, OPT %.2f",
		finals["EQU"], finals["OGD"], finals["ABS"], finals["LB-BSP"], finals["JSQ"], finals["DOLBIE"], finals["BestFixed"], finals["OPT"]))
	if finals["DOLBIE"] < finals["EQU"] && finals["DOLBIE"] < finals["ABS"] && finals["DOLBIE"] < finals["LB-BSP"] {
		fig.Notes = append(fig.Notes, "DOLBIE accumulates less regret than EQU, ABS, and LB-BSP")
	} else {
		fig.Notes = append(fig.Notes, "WARNING: DOLBIE's regret did not dominate EQU/ABS/LB-BSP on this realization")
	}
	fig.Notes = append(fig.Notes,
		"BestFixed is computed in hindsight with full knowledge of the whole instance and is not "+
			"implementable online; its near-zero regret shows the instance's minimizers drift slowly "+
			"(small path length P_T), which is also why Theorem 1's P_T-dependent bound is loose here")
	return fig, nil
}

// replayRegret runs alg through mlsim.Run on a fresh realization-0
// cluster of cfg, the instance the figures compute their per-round
// optima opt on, and returns its cumulative dynamic regret: score(t,
// latency) - opt[t] added in round order, latency being round t's
// per-worker latencies.
func replayRegret(cfg Config, alg core.Algorithm, opt []float64, score func(t int, latency []float64) float64) ([]float64, error) {
	cl, err := cfg.cluster(0, cfg.Model)
	if err != nil {
		return nil, err
	}
	run, err := mlsim.Run(cl, alg, len(opt))
	if err != nil {
		return nil, err
	}
	ys := make([]float64, len(opt))
	var cum float64
	for t, latency := range run.PerWorkerLatency {
		cum += score(t, latency) - opt[t]
		ys[t] = cum
	}
	return ys, nil
}
