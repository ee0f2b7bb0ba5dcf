// Package optimum solves the instantaneous min-max load balancing problem
//
//	min_x max_i f_i(x_i)   s.t.  sum_i x_i = 1,  x_i >= 0,
//
// for increasing local cost functions f_i. This is the per-round problem
// whose minimizers x_t^* define the paper's dynamic-regret comparator and
// the clairvoyant OPT baseline of Section VI-B.
//
// The solver is a water-filling bisection on the cost level lambda: for a
// candidate level, each worker can absorb at most
// inv_i(lambda) = max{x in [0,1] : f_i(x) <= lambda}; the optimal level is
// the smallest lambda whose total absorbable workload reaches 1. Each
// level probe costs one monotone inversion per worker, so the solver runs
// in O(N log(1/tol)) inversions.
package optimum

import (
	"errors"
	"fmt"
	"math"

	"dolbie/internal/costfn"
)

// DefaultTol is the default relative tolerance on the optimal level.
const DefaultTol = 1e-10

// maxIters bounds the bisection on the cost level; 200 halvings exceed
// float64 resolution for any finite bracket.
const maxIters = 200

// ErrNoWorkers is returned when the problem has no workers.
var ErrNoWorkers = errors.New("optimum: no workers")

// Result is the solution of one instantaneous problem.
type Result struct {
	// X is a minimizer on the simplex.
	X []float64
	// Value is the achieved global cost max_i f_i(X_i).
	Value float64
}

// Solve computes an instantaneous minimizer. tol <= 0 uses DefaultTol.
func Solve(funcs []costfn.Func, tol float64) (Result, error) {
	n := len(funcs)
	if n == 0 {
		return Result{}, ErrNoWorkers
	}
	for i, f := range funcs {
		if f == nil {
			return Result{}, fmt.Errorf("optimum: cost function %d is nil", i)
		}
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	if n == 1 {
		return Result{X: []float64{1}, Value: funcs[0].Eval(1)}, nil
	}

	// Bracket the optimal level: the global cost is at least
	// max_i f_i(0) (every worker pays its fixed cost) and at most
	// max_i f_i(1) is achievable already by loading any single worker, so
	// the max over i of f_i(1) upper-bounds the optimum grossly; use the
	// tighter min over single-worker loadings.
	lo := math.Inf(-1)
	hi := math.Inf(1)
	for i, f := range funcs {
		if v := f.Eval(0); v > lo {
			lo = v
		}
		// Loading everything on worker i yields global cost
		// max(f_i(1), max_{j != i} f_j(0)); any such loading is feasible.
		v := f.Eval(1)
		for j, g := range funcs {
			if j != i {
				if w := g.Eval(0); w > v {
					v = w
				}
			}
		}
		if v < hi {
			hi = v
		}
	}
	if hi < lo {
		hi = lo
	}

	x, err := waterFill(n, lo, hi, tol, func(i int, level float64) (float64, error) {
		xi, _, err := costfn.Inverse(funcs[i], level, 0, 1, tol)
		return xi, err
	})
	if err != nil {
		return Result{}, err
	}

	value := math.Inf(-1)
	for i, f := range funcs {
		if v := f.Eval(x[i]); v > value {
			value = v
		}
	}
	return Result{X: x, Value: value}, nil
}

// waterFill finds the smallest level in [lo, hi] at which the workers
// absorb the whole unit, where absorb(i, level) is the load worker i
// takes at that level (a failed probe counts as no load), by bisection
// to tol; Solve's levels are costs, SolveLp's marginals. It returns the
// loads at the feasible end of the final bracket with the sum-to-one
// defect repaired: a surplus is trimmed in index order (trimming only
// lowers costs), a shortfall goes to the largest coordinate (whose
// level is within the tolerance of the optimum) and what exceeds the
// box bound spills over in index order.
func waterFill(n int, lo, hi, tol float64, absorb func(i int, level float64) (float64, error)) ([]float64, error) {
	absorbable := func(level float64) float64 {
		var total float64
		for i := 0; i < n; i++ {
			xi, err := absorb(i, level)
			if err != nil {
				continue
			}
			total += xi
			if total >= 1 {
				return total
			}
		}
		return total
	}
	if absorbable(lo) >= 1 {
		hi = lo
	}
	for iter := 0; iter < maxIters && hi-lo > tol*(1+math.Abs(hi)); iter++ {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if absorbable(mid) >= 1 {
			hi = mid
		} else {
			lo = mid
		}
	}

	x := make([]float64, n)
	total := 0.0
	for i := range x {
		xi, err := absorb(i, hi)
		if err != nil {
			return nil, fmt.Errorf("optimum: inverse for worker %d: %w", i, err)
		}
		x[i] = xi
		total += xi
	}
	if total < 1 {
		deficit := 1 - total
		best := 0
		for i := 1; i < n; i++ {
			if x[i] > x[best] {
				best = i
			}
		}
		x[best] += deficit
		if x[best] > 1 {
			over := x[best] - 1
			x[best] = 1
			for i := 0; i < n && over > 1e-18; i++ {
				if i == best {
					continue
				}
				room := 1 - x[i]
				give := math.Min(room, over)
				x[i] += give
				over -= give
			}
		}
	} else if total > 1 {
		surplus := total - 1
		for i := 0; i < n && surplus > 0; i++ {
			cut := math.Min(x[i], surplus)
			x[i] -= cut
			surplus -= cut
		}
	}
	return x, nil
}
