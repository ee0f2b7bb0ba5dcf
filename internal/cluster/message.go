// Package cluster is the distributed runtime for DOLBIE: it executes the
// master-worker protocol (Algorithm 1) and the fully-distributed protocol
// (Algorithm 2) as real concurrent nodes exchanging messages over a
// pluggable transport. Two transports are provided: an in-memory network
// for tests and simulation, and a TCP transport with length-prefixed
// frames for actual multi-process deployments. Faults (drops,
// duplicates, delays, partitions, crashes) come only from wrapping
// either in the deterministic Chaos transport. Message encoding is owned
// by internal/wire: every transport accepts a wire.Codec (compact
// versioned binary by default, JSON for debugging) and all traffic
// metering uses the frame sizes the codec actually produced — envelopes
// are never re-marshaled to be counted.
//
// The protocol logic itself lives in internal/core as pure state
// machines; this package only moves bytes, enforces deadlines via
// contexts, and counts traffic (which reproduces the communication
// complexity analysis of the paper's Section IV-C: O(N) messages per
// round for master-worker, O(N^2) for fully-distributed).
package cluster

import "dolbie/internal/wire"

// Envelope is the wire unit: a routed protocol message whose payload's
// type is its kind. It aliases wire.Envelope, which carries the payload
// as a typed value and defers all encoding to the transport's codec.
type Envelope = wire.Envelope
