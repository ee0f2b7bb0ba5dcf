package cluster

import (
	"sync"

	"dolbie/internal/metrics"
	"dolbie/internal/wire"
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

// numKinds sizes a tally: one slot per wire kind up to the last valid
// one, which covers every kind Envelope.Kind returns.
const numKinds = int(wire.KindAggregate) + 1

// dirLabels are the dir label values of dolbie_cluster_messages_total.
var dirLabels = [2]string{dirSent: "sent", dirReceived: "received"}

// netMetrics publishes one meter's tally to a registry's
// dolbie_cluster_* series. publish, the registry's scrape hook, advances
// each series by what the tally gained since it last ran, the pattern
// of the dispatcher's hook (DESIGN §9). It holds the tally and series
// handles, never the Meter or its transport.
type netMetrics struct {
	t      *tally
	byKind *metrics.CounterVec
	mu     sync.Mutex // serializes a scrape's publish with the run's last one
	dirs   [2]dirSeries
}

// dirSeries is one direction's series and what was last published to
// them.
type dirSeries struct {
	msgs, bytes *metrics.Counter
	// kinds[k] is kind k's messages_total series, resolved when the first
	// message of k is published, so the exposition lists exactly the
	// kinds that were sent or received.
	kinds     [numKinds]*metrics.Counter
	lastMsgs  [numKinds]uint64
	lastBytes uint64
}

// newNetMetrics binds the cluster traffic instruments for one node's
// tally t. Registration is idempotent, so every node of a deployment
// shares the same families, distinguished by the node label.
func newNetMetrics(reg *metrics.Registry, node string, t *tally) *netMetrics {
	nm := &netMetrics{t: t, byKind: reg.CounterVec(MetricMessages, "Protocol messages by kind and direction.", "kind", "dir")}
	nm.dirs[dirSent].msgs = reg.CounterVec(MetricMsgsSent, "Protocol messages sent.", "node").WithLabelValues(node)
	nm.dirs[dirReceived].msgs = reg.CounterVec(MetricMsgsReceived, "Protocol messages received.", "node").WithLabelValues(node)
	nm.dirs[dirSent].bytes = reg.CounterVec(MetricBytesSent, "Protocol wire bytes sent.", "node").WithLabelValues(node)
	nm.dirs[dirReceived].bytes = reg.CounterVec(MetricBytesReceived, "Protocol wire bytes received.", "node").WithLabelValues(node)
	return nm
}

// publish advances every series by its tally's gain since the last
// publication.
func (nm *netMetrics) publish() {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	for dir := range nm.dirs {
		s, d := &nm.dirs[dir], &nm.t[dir]
		var msgs uint64
		for k := range s.kinds {
			n := d.msgs[k].Load()
			gain := n - s.lastMsgs[k]
			if gain == 0 {
				continue
			}
			if s.kinds[k] == nil {
				s.kinds[k] = nm.byKind.WithLabelValues(wire.Kind(k).String(), dirLabels[dir])
			}
			s.kinds[k].Add(float64(gain))
			s.lastMsgs[k], msgs = n, msgs+gain
		}
		if msgs > 0 {
			s.msgs.Add(float64(msgs))
		}
		if n := d.bytes.Load(); n > s.lastBytes {
			s.bytes.Add(float64(n - s.lastBytes))
			s.lastBytes = n
		}
	}
}
