// Package core implements DOLBIE (Distributed Online Load Balancing with
// rIsk-averse assistancE), the primary contribution of the paper
// "Distributed Online Min-Max Load Balancing with Risk-Averse Assistance"
// (Wang & Liang, ICDCS 2023).
//
// DOLBIE solves, in an online round-by-round fashion, the problem
//
//	min_{x_1..x_T}  sum_t max_i f_{i,t}(x_{i,t})
//	s.t.            sum_i x_{i,t} = 1,  x_{i,t} >= 0,
//
// where the increasing local cost functions f_{i,t} are revealed only
// after the round-t decision is played. Its update is gradient-free and
// projection-free: after each round, every non-straggling worker computes
// the maximum workload x'_{i,t} it could have carried without exceeding
// the round's global cost, and moves a risk-averse step alpha_t toward
// it; the straggler absorbs the remaining workload, and the step size is
// shrunk just enough to keep the next round feasible.
//
// The package provides three faces of the same algorithm:
//
//   - Balancer: a centralized convenience driver that performs the whole
//     update in one place. This is what simulations and benchmarks use.
//   - MasterState/WorkerState: the master-worker protocol of Algorithm 1
//     as pure message-driven state machines.
//   - PeerState: the fully-distributed protocol of Algorithm 2.
//
// The state machines exchange only scalar values (costs, step sizes, and
// decisions), never the cost functions themselves, matching the paper's
// privacy and communication model. Transports live in internal/cluster.
package core

import (
	"errors"
	"fmt"

	"dolbie/internal/costfn"
)

// Observation is the feedback revealed to the algorithm at the end of a
// round: the realized local costs l_{i,t} = f_{i,t}(x_{i,t}) and the local
// cost functions f_{i,t} themselves (each worker only ever inspects its
// own entry; the slice form is a convenience for centralized drivers).
type Observation struct {
	// Costs holds l_{i,t} for every worker i.
	Costs []float64
	// Funcs holds the revealed local cost functions f_{i,t}.
	Funcs []costfn.Func
}

// Validate checks internal consistency of the observation for n workers.
func (o Observation) Validate(n int) error {
	if len(o.Costs) != n {
		return fmt.Errorf("core: observation has %d costs, want %d", len(o.Costs), n)
	}
	if len(o.Funcs) != n {
		return fmt.Errorf("core: observation has %d cost functions, want %d", len(o.Funcs), n)
	}
	for i, f := range o.Funcs {
		if f == nil {
			return fmt.Errorf("core: cost function %d is nil", i)
		}
	}
	return nil
}

// Algorithm is the common face of every online load balancing algorithm in
// this repository (DOLBIE and the baselines of the paper's Section VI).
//
// The protocol per round t is: read Assignment() to obtain x_t, play it,
// then call Update with the revealed observation so the algorithm can
// prepare x_{t+1}.
type Algorithm interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Assignment returns the current workload vector x_t. Callers must not
	// modify the returned slice.
	Assignment() []float64
	// Update consumes the round-t observation and computes x_{t+1}.
	Update(obs Observation) error
}

// ErrBadDimension is returned when an input does not match the number of
// workers the algorithm was constructed with.
var ErrBadDimension = errors.New("core: dimension mismatch")

// ErrRejected wraps every refusal of a protocol message on arrival: one
// from an unknown sender, stale, too far ahead, misaddressed or a
// duplicate. A refused message leaves the state machine as it was, so a
// driver can drop it and carry on; any other error from a Handle method
// means applying an accepted message failed.
var ErrRejected = errors.New("core: message rejected")

// reject returns an ErrRejected error with the formatted reason.
func reject(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrRejected}, args...)...)
}

// drainEps is the threshold below which a straggler's remainder workload
// is treated as fully drained (floating-point dust from the feasibility
// guard); rule (7)'s step-size shrink is skipped in that degenerate case
// to avoid freezing the step size at zero.
const drainEps = 1e-12

// InitialAlpha returns the paper's default initial step size
//
//	alpha_1 = min_i x_{i,1} / (N - 2 + min_i x_{i,1}),
//
// which instantiates the feasibility rule (7) at the initial partition.
// For N <= 2 the rule degenerates gracefully (N = 2 yields alpha_1 <= 1
// automatically; N = 1 has no balancing decision and returns 1).
func InitialAlpha(x0 []float64) float64 { return InitialAlphaScaled(x0, 1) }

// InitialAlphaScaled is InitialAlpha with the rule evaluated in units of
// 1/scale of the total workload (see AlphaCapScaled).
func InitialAlphaScaled(x0 []float64, scale float64) float64 {
	n := len(x0)
	if n <= 1 {
		return 1
	}
	minX := x0[0]
	for _, v := range x0[1:] {
		if v < minX {
			minX = v
		}
	}
	return AlphaCapScaled(minX, n, scale)
}

// AlphaCap returns the feasibility cap of rule (7)/(8):
//
//	x_s / (N - 2 + x_s)
//
// for a straggler workload x_s among n workers, clamped to [0, 1].
func AlphaCap(xs float64, n int) float64 { return AlphaCapScaled(xs, n, 1) }

// AlphaCapScaled evaluates the rule-(7) cap with the straggler workload
// expressed in units of 1/scale of the total (scale = 1 is the paper's
// normalized fraction; scale = B expresses it in samples, the natural
// units of the batch-size application of Section VI).
//
// The distinction matters in practice: in fraction units the cap shrinks
// aggressively whenever any straggler's share becomes small, permanently
// crushing the (non-increasing) step size and freezing the balancer —
// whereas in sample units the cap binds only when the straggler holds
// less than about N-2 samples, which matches the fast, sustained tracking
// the paper's experiments exhibit with alpha_1 = 0.001. The strict
// fraction rule remains the default (it is what the Theorem 1 analysis
// assumes); applications opt into scaled units via WithStepRuleScale.
// Either way, the balancer's exact per-round guard keeps every decision
// feasible.
func AlphaCapScaled(xs float64, n int, scale float64) float64 {
	if xs < 0 {
		xs = 0
	}
	if scale <= 0 {
		scale = 1
	}
	u := xs * scale
	den := float64(n-2) + u
	if den <= 0 {
		return 1
	}
	c := u / den
	if c > 1 {
		c = 1
	}
	return c
}
