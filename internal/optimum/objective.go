package optimum

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"dolbie/internal/costfn"
)

// Objective selects the global cost aggregated over the per-worker
// costs f_i(x_i). The zero value is the paper's min-max objective
// (makespan); Lp(p) selects the lp-norm generalization
//
//	(sum_i f_i(x_i)^p)^(1/p),   p >= 1,
//
// studied for online load balancing by Molinaro ("Online and
// Random-order Load Balancing Simultaneously") and Liu, Hatano &
// Takimoto ("Improved algorithms for online load balancing"). As
// p -> inf the lp norm converges to the max, so the family
// interpolates between total-cost (p = 1) and makespan fairness.
type Objective struct {
	// p is 0 for min-max (the zero value) and the norm order >= 1 for
	// lp objectives. Kept unexported so every constructed value is
	// either the zero value or went through Lp/UnmarshalText.
	p float64
}

// MinMax returns the paper's min-max (makespan) objective — the zero
// Objective value.
func MinMax() Objective { return Objective{} }

// Lp returns the lp-norm objective of order p. Validity (p >= 1) is
// checked by Validate, not here, so flag and config parsing can carry
// invalid orders to a descriptive error.
func Lp(p float64) Objective { return Objective{p: p} }

// IsMinMax reports whether the objective is min-max.
func (o Objective) IsMinMax() bool { return o.p == 0 }

// P returns the norm order (0 for min-max).
func (o Objective) P() float64 { return o.p }

// Validate checks the objective: min-max is always valid; lp requires
// a finite order p >= 1 (the lp "norm" is not a norm below 1, and the
// marginal water-filling solver relies on convexity of t^p).
func (o Objective) Validate() error {
	if o.IsMinMax() {
		return nil
	}
	if math.IsNaN(o.p) || math.IsInf(o.p, 0) || o.p < 1 {
		return fmt.Errorf("optimum: lp objective order p = %v invalid (want p >= 1)", o.p)
	}
	return nil
}

// String returns the objective's flag spelling: "minmax", or "l<p>"
// with the order formatted compactly ("l2", "l1.5").
func (o Objective) String() string {
	if o.IsMinMax() {
		return "minmax"
	}
	return "l" + strconv.FormatFloat(o.p, 'g', -1, 64)
}

// MarshalText implements encoding.TextMarshaler with the String
// spelling, so Objective works with flag.TextVar and JSON/text configs.
func (o Objective) MarshalText() ([]byte, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return []byte(o.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler, accepting "minmax"
// (or "max", "makespan") and "l<p>" (or "lp<p>") for the lp family,
// case-insensitive.
func (o *Objective) UnmarshalText(text []byte) error {
	t := strings.ToLower(strings.TrimSpace(string(text)))
	switch t {
	case "minmax", "max", "makespan":
		*o = MinMax()
		return nil
	}
	digits := ""
	switch {
	case strings.HasPrefix(t, "lp"):
		digits = t[2:]
	case strings.HasPrefix(t, "l"):
		digits = t[1:]
	}
	if digits != "" {
		p, err := strconv.ParseFloat(digits, 64)
		if err == nil {
			parsed := Lp(p)
			if verr := parsed.Validate(); verr != nil {
				return verr
			}
			*o = parsed
			return nil
		}
	}
	return fmt.Errorf("optimum: unknown objective %q (want minmax or l<p>, e.g. l2)", text)
}

// Global aggregates realized per-worker costs under the objective:
// max_i costs[i] for min-max, (sum_i max(costs[i],0)^p)^(1/p) for lp.
func (o Objective) Global(costs []float64) float64 {
	if len(costs) == 0 {
		return 0
	}
	if o.IsMinMax() {
		worst := math.Inf(-1)
		for _, c := range costs {
			if c > worst {
				worst = c
			}
		}
		return worst
	}
	var total float64
	for _, c := range costs {
		if c < 0 {
			c = 0
		}
		total += math.Pow(c, o.p)
	}
	return math.Pow(total, 1/o.p)
}

// Solve computes the instantaneous minimizer of the objective over the
// simplex: the min-max water-filling of Solve, or the lp marginal
// water-filling of SolveLp. tol <= 0 uses DefaultTol.
func (o Objective) Solve(funcs []costfn.Func, tol float64) (Result, error) {
	if err := o.Validate(); err != nil {
		return Result{}, err
	}
	if o.IsMinMax() {
		return Solve(funcs, tol)
	}
	return SolveLp(funcs, o.p, tol)
}
