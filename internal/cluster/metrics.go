package cluster

import (
	"sync/atomic"

	"dolbie/internal/metrics"
)

// Cluster-layer metric family names. The "dolbie_cluster_" prefix
// groups the transport-level signals that reproduce the communication
// complexity analysis of the paper's Section IV-C (message and byte
// overhead of Algorithms 1-2) plus the reliability/fault-tolerance
// extensions.
const (
	// MetricMsgsSent counts protocol messages sent, labeled by node.
	MetricMsgsSent = "dolbie_cluster_msgs_sent_total"
	// MetricMsgsReceived counts protocol messages received, labeled by
	// node.
	MetricMsgsReceived = "dolbie_cluster_msgs_received_total"
	// MetricBytesSent counts wire bytes sent, labeled by node.
	MetricBytesSent = "dolbie_cluster_bytes_sent_total"
	// MetricBytesReceived counts wire bytes received, labeled by node.
	MetricBytesReceived = "dolbie_cluster_bytes_received_total"
	// MetricMessages counts messages by protocol kind and direction.
	MetricMessages = "dolbie_cluster_messages_total"
	// MetricRetransmissions counts frames re-sent by the reliability
	// layer, labeled by node.
	MetricRetransmissions = "dolbie_cluster_retransmissions_total"
	// MetricDuplicateFrames counts already-delivered frames suppressed
	// by the reliability layer, labeled by node.
	MetricDuplicateFrames = "dolbie_cluster_duplicate_frames_total"
	// MetricRoundTimeouts counts collection phases of the fail-stop
	// master and peers that hit their deadline.
	MetricRoundTimeouts = "dolbie_cluster_round_timeouts_total"
	// MetricWorkersCrashed counts workers declared crashed by the
	// fail-stop master.
	MetricWorkersCrashed = "dolbie_cluster_workers_crashed_total"
	// MetricPeersEvicted counts fail-stop evictions declared by
	// fully-distributed peers (each eviction is counted once per peer
	// that applies it, so an N-peer deployment records up to N-1
	// increments per crashed peer).
	MetricPeersEvicted = "dolbie_cluster_peers_evicted_total"
	// MetricChaosFaults counts faults injected by the chaos transport
	// wrapper, labeled by fault class (drop, duplicate, reorder,
	// partition, crash) and node.
	MetricChaosFaults = "dolbie_cluster_chaos_faults_total"
	// MetricRosterSize gauges each peer's current view of the live
	// roster (elastic membership), labeled by node.
	MetricRosterSize = "dolbie_cluster_roster_size"
	// MetricRosterVersion gauges each peer's applied roster version,
	// labeled by node. All peers converge to the same version between
	// churn events; persistent divergence indicates a membership split.
	MetricRosterVersion = "dolbie_cluster_roster_version"
	// MetricRosterJoins counts admissions applied by elastic peers,
	// labeled by node (like evictions, each join is counted once per
	// peer that applies it).
	MetricRosterJoins = "dolbie_cluster_roster_joins_total"
	// MetricRosterAggDepth gauges the depth of the hierarchical
	// aggregation tree (0 in flat all-to-all mode), labeled by node.
	MetricRosterAggDepth = "dolbie_cluster_roster_aggregation_depth"
)

// numKinds sizes a Meter's per-kind counter cache: one slot per wire
// kind up to the last valid one. A kind past it still counts, through
// the family lookup.
const numKinds = int(KindAggregate) + 1

// kindCounters caches one direction's dolbie_cluster_messages_total
// series, indexed by kind. A slot is resolved on the kind's first
// message, so the exposition lists exactly the kinds that were sent or
// received; after that a message costs one atomic load, with no label
// key built and no family lock taken.
type kindCounters [numKinds]atomic.Pointer[metrics.Counter]

// netMetrics is the per-node instrument set behind an instrumented
// Meter. A nil *netMetrics records nothing.
type netMetrics struct {
	msgsSent  *metrics.Counter
	msgsRecv  *metrics.Counter
	bytesSent *metrics.Counter
	bytesRecv *metrics.Counter
	byKind    *metrics.CounterVec
	sent      kindCounters
	recv      kindCounters
}

// newNetMetrics binds the cluster traffic instruments for one node.
// Registration is idempotent, so every node of a deployment shares the
// same families, distinguished by the node label.
func newNetMetrics(reg *metrics.Registry, node string) *netMetrics {
	if reg == nil {
		return nil
	}
	return &netMetrics{
		msgsSent:  reg.CounterVec(MetricMsgsSent, "Protocol messages sent.", "node").WithLabelValues(node),
		msgsRecv:  reg.CounterVec(MetricMsgsReceived, "Protocol messages received.", "node").WithLabelValues(node),
		bytesSent: reg.CounterVec(MetricBytesSent, "Protocol wire bytes sent.", "node").WithLabelValues(node),
		bytesRecv: reg.CounterVec(MetricBytesReceived, "Protocol wire bytes received.", "node").WithLabelValues(node),
		byKind:    reg.CounterVec(MetricMessages, "Protocol messages by kind and direction.", "kind", "dir"),
	}
}

// kindCounter returns the messages_total series of kind k in direction
// dir, resolving and caching it on first use. Concurrent first uses may
// both resolve it; the family returns the same series to each.
func (nm *netMetrics) kindCounter(cache *kindCounters, k Kind, dir string) *metrics.Counter {
	if int(k) >= len(cache) {
		return nm.byKind.WithLabelValues(k.String(), dir)
	}
	if c := cache[k].Load(); c != nil {
		return c
	}
	c := nm.byKind.WithLabelValues(k.String(), dir)
	cache[k].Store(c)
	return c
}

// recordSend accounts one sent envelope of n wire bytes.
func (nm *netMetrics) recordSend(env Envelope, n int) {
	if nm == nil {
		return
	}
	nm.msgsSent.Inc()
	nm.bytesSent.Add(float64(n))
	nm.kindCounter(&nm.sent, env.Kind, "sent").Inc()
}

// recordRecv accounts one received envelope of n wire bytes.
func (nm *netMetrics) recordRecv(env Envelope, n int) {
	if nm == nil {
		return
	}
	nm.msgsRecv.Inc()
	nm.bytesRecv.Add(float64(n))
	nm.kindCounter(&nm.recv, env.Kind, "received").Inc()
}
