// Package dispatch is the request-serving data plane of the repository:
// it turns DOLBIE's abstract assignment vector x_t into live request
// routing. An open-loop seeded traffic generator (or an HTTP ingest
// handler) feeds a weighted dispatcher that routes every request to a
// worker, each worker owning a bounded FIFO queue drained at a
// time-varying speed simulated by internal/trace processes. When a
// queue is full, a configurable backpressure policy decides whether the
// request is rejected, blocks the ingest, or spills to the
// least-loaded worker with space.
//
// The loop is closed end to end: at every round boundary the per-worker
// observed drain latency becomes the paper's local cost l_{i,t}, an
// affine cost model fitted to the observation is revealed to DOLBIE,
// and the retuned assignment x_{t+1} becomes the dispatcher's routing
// weights for the next round — "traffic in, costs out". The same
// engine runs the two classic serving baselines for comparison:
// uniform weighted round-robin and join-shortest-queue.
//
// Everything is deterministic given a seed: the generator, the demand
// distribution, and the worker speed processes are all seeded, and the
// virtual-time event loop is single-threaded. The Dispatcher itself is
// safe for concurrent use (the HTTP ingest path and concurrent
// /metrics scrapes hit it from many goroutines).
package dispatch

import (
	"fmt"
	"strings"
)

// Request is one unit of work entering the data plane.
type Request struct {
	// ID is a monotonically increasing sequence number.
	ID int64
	// Arrival is the request's arrival time in virtual seconds since the
	// start of the run (wall-clock seconds in live HTTP mode).
	Arrival float64
	// Demand is the request's service demand in abstract work units; a
	// worker with speed gamma serves it in Demand/gamma seconds.
	Demand float64
	// Tenant is the index of the submitting tenant in the dispatcher's
	// Tenants configuration. Out-of-range values (including the zero
	// value on a single-tenant dispatcher) fold to tenant 0, so
	// single-stream callers never need to set it.
	Tenant int
}

// ShedPolicy selects the backpressure behaviour when a routed request
// finds its target queue full.
type ShedPolicy int

const (
	// ShedReject drops the request immediately (fail fast; the HTTP
	// ingest answers 429).
	ShedReject ShedPolicy = iota
	// ShedBlock refuses admission without dropping: the caller is
	// expected to wait for queue space and resubmit. The virtual-time
	// engine stalls the open-loop source until the next completion; the
	// HTTP ingest answers 503 and lets the client retry.
	ShedBlock
	// ShedSpill reroutes the request to the least-loaded worker that
	// still has queue space, and drops it only when every queue is full.
	ShedSpill
)

// String returns the policy's flag spelling ("reject", "block",
// "spill"). It implements fmt.Stringer.
func (s ShedPolicy) String() string {
	switch s {
	case ShedReject:
		return "reject"
	case ShedBlock:
		return "block"
	case ShedSpill:
		return "spill"
	}
	return fmt.Sprintf("ShedPolicy(%d)", int(s))
}

// MarshalText implements encoding.TextMarshaler with the String
// spelling, so ShedPolicy works directly with flag.TextVar and text
// configs; unknown values error instead of leaking "ShedPolicy(7)".
func (s ShedPolicy) MarshalText() ([]byte, error) {
	switch s {
	case ShedReject, ShedBlock, ShedSpill:
		return []byte(s.String()), nil
	}
	return nil, fmt.Errorf("dispatch: unknown shed policy %d", int(s))
}

// UnmarshalText implements encoding.TextUnmarshaler, accepting
// "reject", "block", "spill" (case-insensitive).
func (s *ShedPolicy) UnmarshalText(text []byte) error {
	switch strings.ToLower(strings.TrimSpace(string(text))) {
	case "reject":
		*s = ShedReject
	case "block":
		*s = ShedBlock
	case "spill":
		*s = ShedSpill
	default:
		return fmt.Errorf("dispatch: unknown shed policy %q (want reject, block, or spill)", text)
	}
	return nil
}

// RoutePolicy selects how the dispatcher picks a worker for each
// request.
type RoutePolicy int

const (
	// RouteWeighted routes by smooth weighted round-robin over the
	// current weight vector. With DOLBIE in the loop the weights are the
	// assignment x_t; with static uniform weights this is the classic
	// uniform weighted-round-robin baseline.
	RouteWeighted RoutePolicy = iota
	// RouteJSQ joins the shortest queue: every request goes to the
	// worker with the fewest queued requests (ties break to the lowest
	// index). The classic greedy queue-depth heuristic; it reacts per
	// request but is blind to worker speeds.
	RouteJSQ
)

// String returns the policy's flag spelling ("weighted", "jsq"). It
// implements fmt.Stringer.
func (r RoutePolicy) String() string {
	switch r {
	case RouteWeighted:
		return "weighted"
	case RouteJSQ:
		return "jsq"
	}
	return fmt.Sprintf("RoutePolicy(%d)", int(r))
}

// MarshalText implements encoding.TextMarshaler with the String
// spelling.
func (r RoutePolicy) MarshalText() ([]byte, error) {
	switch r {
	case RouteWeighted, RouteJSQ:
		return []byte(r.String()), nil
	}
	return nil, fmt.Errorf("dispatch: unknown route policy %d", int(r))
}

// UnmarshalText implements encoding.TextUnmarshaler, accepting
// "weighted" (or "wrr") and "jsq" (case-insensitive).
func (r *RoutePolicy) UnmarshalText(text []byte) error {
	switch strings.ToLower(strings.TrimSpace(string(text))) {
	case "weighted", "wrr":
		*r = RouteWeighted
	case "jsq":
		*r = RouteJSQ
	default:
		return fmt.Errorf("dispatch: unknown route policy %q (want weighted or jsq)", text)
	}
	return nil
}

// Outcome classifies what the dispatcher did with a submitted request.
type Outcome int

const (
	// Routed: the request was enqueued on Verdict.Worker.
	Routed Outcome = iota
	// Spilled: the target queue was full and the request was enqueued
	// on the least-loaded worker with space instead (ShedSpill only).
	Spilled
	// Shed: the request was dropped by queue backpressure (admission
	// threshold reached under ShedReject, or every queue at the
	// threshold under ShedSpill).
	Shed
	// Blocked: admission was refused without dropping (ShedBlock); the
	// caller should wait for a completion and resubmit.
	Blocked
	// Throttled: the request was dropped at the door by its tenant's
	// admission rate contract, before touching any queue. Distinct from
	// Shed so callers (and the serving engine's cost model) can tell
	// "the system is full" from "this tenant exceeded its contract".
	Throttled
)

// String names the outcome for logs and HTTP responses.
func (o Outcome) String() string {
	switch o {
	case Routed:
		return "routed"
	case Spilled:
		return "spilled"
	case Shed:
		return "shed"
	case Blocked:
		return "blocked"
	case Throttled:
		return "throttled"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Verdict is the dispatcher's decision for one submitted request.
type Verdict struct {
	// Outcome classifies the decision.
	Outcome Outcome
	// Worker is the queue the request landed on (valid for Routed and
	// Spilled; -1 otherwise).
	Worker int
}
