package optimum

import (
	"fmt"
	"math"

	"dolbie/internal/costfn"
)

// marginalStep is the secant half-width used to probe the marginal cost
// d g_i / d x numerically. The cost-function contract only guarantees
// monotone Eval (no derivatives), so marginals are measured as secant
// slopes over a 2e-6-wide window clipped to [0, 1].
const marginalStep = 1e-6

// SolveLp computes an instantaneous minimizer of the lp-norm objective
//
//	min_x (sum_i f_i(x_i)^p)^(1/p)   s.t.  sum_i x_i = 1,  x_i >= 0,
//
// for increasing local costs f_i and order p >= 1. Minimizing the norm
// is equivalent to minimizing sum_i g_i(x_i) with g_i = f_i^p, whose
// KKT conditions equalize marginals: at the optimum there is a level mu
// such that every worker with load carries it up to the point where its
// marginal cost d g_i / d x reaches mu, and workers whose marginal at
// zero already exceeds mu stay empty. The solver bisects on mu — the
// lp analogue of Solve's water-filling on the cost level — assuming
// convex g_i (which holds for the convex cost families this repository
// fits, composed with t^p, p >= 1; for non-convex increasing costs the
// same iteration is a heuristic). tol <= 0 uses DefaultTol.
func SolveLp(funcs []costfn.Func, p, tol float64) (Result, error) {
	n := len(funcs)
	if n == 0 {
		return Result{}, ErrNoWorkers
	}
	for i, f := range funcs {
		if f == nil {
			return Result{}, fmt.Errorf("optimum: cost function %d is nil", i)
		}
	}
	if err := Lp(p).Validate(); err != nil {
		return Result{}, err
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	if n == 1 {
		return Result{X: []float64{1}, Value: Lp(p).Global([]float64{funcs[0].Eval(1)})}, nil
	}

	pow := make([]costfn.Pow, n)
	for i, f := range funcs {
		pow[i] = costfn.Pow{Inner: f, P: p}
	}

	// Bracket the marginal level: below the smallest zero-load marginal
	// nobody absorbs anything; at the largest full-load marginal everyone
	// absorbs the whole unit.
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range pow {
		if m := marginal(pow[i], 0); m < lo {
			lo = m
		}
		if m := marginal(pow[i], 1); m > hi {
			hi = m
		}
	}
	if hi < lo {
		hi = lo
	}

	x, err := waterFill(n, lo, hi, tol, func(i int, mu float64) (float64, error) {
		return maxLoadAtMarginal(pow[i], mu, tol), nil
	})
	if err != nil {
		return Result{}, err
	}

	costs := make([]float64, n)
	for i, f := range funcs {
		costs[i] = f.Eval(x[i])
	}
	return Result{X: x, Value: Lp(p).Global(costs)}, nil
}

// marginal measures the secant marginal cost of g at load x, clipped to
// the unit interval.
func marginal(g costfn.Func, x float64) float64 {
	a, b := x-marginalStep, x+marginalStep
	if a < 0 {
		a = 0
	}
	if b > 1 {
		b = 1
	}
	if b <= a {
		return 0
	}
	return (g.Eval(b) - g.Eval(a)) / (b - a)
}

// maxLoadAtMarginal returns max{x in [0, 1] : marginal(g, x) <= mu},
// the workload worker g absorbs at marginal level mu (0 when even the
// zero-load marginal exceeds mu). The marginal of a convex g is
// non-decreasing, so the query is a monotone bisection.
func maxLoadAtMarginal(g costfn.Func, mu, tol float64) float64 {
	if marginal(g, 0) > mu {
		return 0
	}
	if marginal(g, 1) <= mu {
		return 1
	}
	a, b := 0.0, 1.0
	for b-a > tol {
		m := a + (b-a)/2
		if m <= a || m >= b {
			break
		}
		if marginal(g, m) <= mu {
			a = m
		} else {
			b = m
		}
	}
	return a
}
