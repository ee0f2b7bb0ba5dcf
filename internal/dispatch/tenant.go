package dispatch

import (
	"fmt"
	"math"
	"strings"

	"dolbie/internal/optimum"
)

// PriorityClass is a tenant's service tier. Under queue pressure the
// dispatcher sheds lower classes strictly before higher ones: each
// class may only occupy a queue up to a class-specific depth threshold,
// so when queues fill past the bronze threshold, bronze admissions shed
// while gold requests still find room. The zero value is PriorityGold,
// which is what the anonymous single-stream path runs as.
type PriorityClass int

const (
	// PriorityGold admits up to the full queue capacity (sheds last).
	PriorityGold PriorityClass = iota
	// PrioritySilver admits up to 3/4 of the queue capacity.
	PrioritySilver
	// PriorityBronze admits up to 1/2 of the queue capacity (sheds
	// first).
	PriorityBronze
)

// String returns the class's flag spelling ("gold", "silver",
// "bronze"). It implements fmt.Stringer.
func (p PriorityClass) String() string {
	switch p {
	case PriorityGold:
		return "gold"
	case PrioritySilver:
		return "silver"
	case PriorityBronze:
		return "bronze"
	}
	return fmt.Sprintf("PriorityClass(%d)", int(p))
}

// MarshalText implements encoding.TextMarshaler with the String
// spelling, so PriorityClass works with flag.TextVar and text configs.
func (p PriorityClass) MarshalText() ([]byte, error) {
	switch p {
	case PriorityGold, PrioritySilver, PriorityBronze:
		return []byte(p.String()), nil
	}
	return nil, fmt.Errorf("dispatch: unknown priority class %d", int(p))
}

// UnmarshalText implements encoding.TextUnmarshaler, accepting "gold",
// "silver", "bronze" (case-insensitive).
func (p *PriorityClass) UnmarshalText(text []byte) error {
	switch strings.ToLower(strings.TrimSpace(string(text))) {
	case "gold":
		*p = PriorityGold
	case "silver":
		*p = PrioritySilver
	case "bronze":
		*p = PriorityBronze
	default:
		return fmt.Errorf("dispatch: unknown priority class %q (want gold, silver, or bronze)", text)
	}
	return nil
}

// queueLimit returns the class's admission depth threshold for a queue
// of the given capacity: gold uses the full capacity, silver stops at
// 3/4, bronze at 1/2 (each at least one slot). The thresholds apply to
// shared queue depth, not per-class occupancy, which is what makes the
// shed ordering strict: once depth crosses the bronze threshold, every
// bronze admission sheds while gold still admits.
func (p PriorityClass) queueLimit(capacity int) int {
	switch p {
	case PrioritySilver:
		return capacity - capacity/4
	case PriorityBronze:
		return capacity - capacity/2
	}
	return capacity
}

// TenantConfig describes one tenant of a multi-tenant dispatcher or
// serving run. The zero value is a valid gold tenant inheriting every
// run-level default.
type TenantConfig struct {
	// Name labels the tenant in metrics and results. Empty auto-names
	// the tenant "tenant<i>"; non-empty names must be metrics-label-safe
	// ([A-Za-z0-9_.-]).
	Name string
	// Weight is the tenant's share of the run-level arrival rate when
	// Rate is zero (normalized against the other tenants' weights). It
	// must be finite and non-negative, as must Rate, RateLimit and
	// DemandMean.
	Weight float64
	// Priority is the tenant's service tier; lower tiers shed strictly
	// before higher ones under queue pressure.
	Priority PriorityClass
	// Rate is the tenant's offered arrival rate in requests per second
	// in serving simulations; zero derives it from Weight.
	Rate float64
	// RateLimit is the admission rate contract enforced by the
	// dispatcher in requests per second: arrivals beyond it are shed at
	// the door (outcome "throttled") before touching any queue, which is
	// what isolates quiet tenants from a noisy neighbour's spike. Zero
	// disables throttling.
	RateLimit float64
	// DemandMean is the tenant's mean service demand per request in
	// work units; zero inherits the run-level demand mean.
	DemandMean float64
	// Shed is the tenant's backpressure policy when its admission
	// threshold is reached.
	Shed ShedPolicy
	// Objective selects the tenant's balancing objective: the zero
	// value is the paper's min-max, optimum.Lp(p) selects the lp-norm
	// family.
	Objective optimum.Objective
	// Alpha1 is the tenant's initial step size; zero inherits the
	// run-level Alpha1.
	Alpha1 float64
}

// Validate checks one tenant configuration.
func (t TenantConfig) Validate() error {
	for _, r := range t.Name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '.', r == '-':
		default:
			return fmt.Errorf("dispatch: tenant name %q contains %q (want [A-Za-z0-9_.-])", t.Name, r)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"weight", t.Weight}, {"rate", t.Rate}, {"rate limit", t.RateLimit}, {"demand mean", t.DemandMean}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("dispatch: tenant %q has %s %v, want a finite non-negative value", t.Name, f.name, f.v)
		}
	}
	if _, err := t.Priority.MarshalText(); err != nil {
		return fmt.Errorf("dispatch: tenant %q: %w", t.Name, err)
	}
	if _, err := t.Shed.MarshalText(); err != nil {
		return fmt.Errorf("dispatch: tenant %q: %w", t.Name, err)
	}
	if err := t.Objective.Validate(); err != nil {
		return fmt.Errorf("dispatch: tenant %q: %w", t.Name, err)
	}
	if !(t.Alpha1 >= 0 && t.Alpha1 <= 1) {
		return fmt.Errorf("dispatch: tenant %q has Alpha1 = %v out of [0, 1]", t.Name, t.Alpha1)
	}
	return nil
}

// DefaultTenants returns a freshly allocated slice of t equal-weight
// tenants cycling through the priority classes gold, silver, bronze —
// the multi-tenant counterpart of DefaultServeConfig. Every call
// allocates new backing arrays, so two configurations never alias.
func DefaultTenants(t int) []TenantConfig {
	out := make([]TenantConfig, t)
	for i := range out {
		class := PriorityClass(i % 3)
		name := class.String()
		if t > 3 {
			name = fmt.Sprintf("%s%d", class, i)
		}
		out[i] = TenantConfig{Name: name, Weight: 1, Priority: class, Shed: ShedReject}
	}
	return out
}

// TenantTotals is a consistent per-tenant snapshot of the dispatcher's
// counters. The per-tenant conservation law
//
//	Arrivals == Routed + Shed + Throttled + Blocked
//
// holds for every snapshot, exactly like the aggregate law: each
// admission commits atomically inside one shard critical section.
type TenantTotals struct {
	// Name is the tenant's resolved name.
	Name string
	// Arrivals counts the tenant's Submit calls.
	Arrivals int64
	// Routed counts the tenant's enqueued requests (spills included).
	Routed int64
	// Shed counts requests dropped by queue backpressure.
	Shed int64
	// Throttled counts requests shed at the door by the tenant's
	// admission rate contract.
	Throttled int64
	// Spilled counts requests rerouted off their weighted target.
	Spilled int64
	// Blocked counts refused admission attempts (ShedBlock).
	Blocked int64
	// Completed counts requests fully served.
	Completed int64
}
