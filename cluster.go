package dolbie

// This file promotes the distributed runtime to the public API surface.
// Downstream users previously had to import dolbie/internal/cluster to
// run a live deployment; everything a deployment needs — transports,
// cost sources, the deployment drivers of Algorithms 1 and 2, and the
// fault-tolerance extensions — is re-exported here with its
// documentation, so `import "dolbie"` is the whole story. The examples
// under examples/ use only this surface.

import (
	"context"
	"time"

	"dolbie/internal/cluster"
	"dolbie/internal/wire"
)

// Distributed runtime types, re-exported from the cluster runtime.
type (
	// Transport is one node's connection to the rest of the deployment.
	// Send and Recv report each message's encoded frame size so traffic
	// accounting never re-marshals an envelope. Implementations: the
	// in-memory network (see NewMemNet), TCP sockets (see ListenTCP),
	// and the reliability wrapper (see NewReliable).
	Transport = cluster.Transport
	// Envelope is the wire unit exchanged by deployment nodes: a typed,
	// routed protocol message, encoded by the transport's Codec.
	Envelope = cluster.Envelope
	// Codec turns envelopes into wire frames and back. Two built-in
	// codecs exist: CodecBinary (compact, versioned, the default) and
	// CodecJSON (debugging-friendly). Every node of a deployment must
	// use the same codec.
	Codec = wire.Codec
	// CostSource supplies a node's local cost feedback after it plays a
	// workload fraction (standing in for executing the actual work).
	CostSource = cluster.CostSource
	// FuncSource adapts a plain function to a CostSource.
	FuncSource = cluster.FuncSource
	// MasterConfig parameterizes RunMaster's fail-stop handling (round
	// deadline, where zero waits forever, and minimum live worker count).
	MasterConfig = cluster.MasterConfig
	// MasterResult summarizes a completed master run of Algorithm 1,
	// including the workers declared crashed and the survivors.
	MasterResult = cluster.MasterResult
	// WorkerResult summarizes a completed worker run of Algorithm 1.
	WorkerResult = cluster.WorkerResult
	// PeerResult summarizes a completed peer run of Algorithm 2.
	PeerResult = cluster.PeerResult
	// TrafficStats is a node's protocol traffic snapshot (messages and
	// bytes in both directions).
	TrafficStats = cluster.TrafficStats
	// MemNet is the in-memory network hub for tests and single-process
	// deployments; faults are injected by wrapping its nodes with Chaos.
	MemNet = cluster.MemNet
	// MemNetOption configures a MemNet (see WithInboxBuffer and
	// WithCodec).
	MemNetOption = cluster.MemNetOption
	// TCPNode is a TCP transport endpoint (length-prefixed frames over
	// real sockets, encoded by the node's codec; see WithTCPCodec).
	TCPNode = cluster.TCPNode
	// TCPOption configures a TCPNode at listen time (see WithTCPCodec).
	TCPOption = cluster.TCPOption
	// Reliable upgrades a lossy Transport to at-least-once delivery with
	// duplicate suppression (acks, retransmission, reordering).
	Reliable = cluster.Reliable
	// Meter wraps a Transport with traffic accounting.
	Meter = cluster.Meter
	// Chaos is the deterministic fault-injection layer: it wraps any
	// Transport (in-memory or TCP) and injects delay, jitter, drops,
	// duplication, reordering, asymmetric partitions, and fail-stop
	// crashes, all reproducible from a seed (see NewChaos).
	Chaos = cluster.Chaos
	// ChaosConfig selects the fault classes a Chaos layer injects and
	// their seeds, probabilities, and schedules.
	ChaosConfig = cluster.ChaosConfig
	// ChaosPartition schedules an asymmetric one-way partition of a
	// single link for a span of protocol rounds.
	ChaosPartition = cluster.ChaosPartition
	// ChaosCrash schedules a fail-stop crash of one node's transport at
	// the start of a protocol round.
	ChaosCrash = cluster.ChaosCrash
	// ChaosStats counts the faults a Chaos layer actually injected.
	ChaosStats = cluster.ChaosStats
	// Topology selects the per-round communication pattern of an elastic
	// Algorithm 2 deployment: TopologyFlat is the paper's all-to-all
	// exchange (O(N^2) messages per round), TopologyTree aggregates the
	// round consensus up and down a deterministic k-ary tree (~3N
	// messages over O(log N) hops) with bit-identical results. The type
	// implements encoding.TextMarshaler/TextUnmarshaler ("flat", "tree")
	// so it can back a flag.TextVar flag.
	Topology = cluster.Topology
	// Roster is a peer's versioned view of cluster membership under
	// elastic deployments: the live set, every identity ever admitted
	// (evicted ids are never readmitted), and the ordered event log.
	Roster = cluster.Roster
	// RosterEvent records one membership change (join or eviction) with
	// the roster version it produced and the round it took effect.
	RosterEvent = cluster.RosterEvent
	// ElasticPeerConfig parameterizes RunElasticPeer and JoinElasticPeer:
	// collection deadline (zero waits forever), aggregation topology and
	// fanout. Its zero value is the paper's Algorithm 2.
	ElasticPeerConfig = cluster.ElasticPeerConfig
	// ElasticPeerResult summarizes one peer's run of Algorithm 2: its
	// played shares and costs, how it ended (completed, crashed or
	// evicted), the evictions and admissions it applied, the final roster
	// version and event log, and the aggregation tree depth.
	ElasticPeerResult = cluster.ElasticPeerResult
	// ElasticJoin schedules one joiner in an ElasticDeployment: its id,
	// contact member, arrival round, and cost source.
	ElasticJoin = cluster.ElasticJoin
	// ElasticDeploymentConfig wires a complete elastic Algorithm 2
	// deployment: incumbent start state, total rounds, per-peer cost
	// sources, scheduled joiners, and the shared peer configuration.
	ElasticDeploymentConfig = cluster.ElasticDeploymentConfig
)

// Fault-tolerance sentinel errors, re-exported for errors.Is checks.
var (
	// ErrChaosCrashed is returned by a chaos-wrapped transport after its
	// scheduled fail-stop crash fired.
	ErrChaosCrashed = cluster.ErrChaosCrashed
	// ErrJoinDenied is returned by JoinElasticPeer when the coordinator
	// rejects the join — an evicted identity can never rejoin.
	ErrJoinDenied = cluster.ErrJoinDenied
	// ErrJoinTimeout is returned by JoinElasticPeer when no admission
	// decision arrives within 10 RoundTimeouts.
	ErrJoinTimeout = cluster.ErrJoinTimeout
)

// Aggregation topologies for elastic deployments (see Topology).
const (
	// TopologyFlat is the paper's all-to-all share exchange.
	TopologyFlat = cluster.TopologyFlat
	// TopologyTree is the hierarchical tree aggregation overlay.
	TopologyTree = cluster.TopologyTree
	// DefaultFanout is the aggregation tree fanout used when
	// ElasticPeerConfig.Fanout is zero.
	DefaultFanout = cluster.DefaultFanout
)

// Built-in wire codecs.
var (
	// CodecJSON frames each envelope as one JSON object — readable in
	// packet captures and byte-compatible with pre-codec deployments.
	CodecJSON = wire.JSON
	// CodecBinary is the compact versioned binary framing (one version
	// byte, kind/from/to header, fixed-width scalar payloads): the
	// production default, a few dozen bytes per protocol message.
	CodecBinary = wire.Binary
)

// CodecByName resolves a codec registry name ("json", "binary"), as
// accepted by the -codec command-line flags.
func CodecByName(name string) (Codec, error) { return wire.ByName(name) }

// NewMemNet constructs an in-memory network hub. Obtain per-node
// transports with its Node method.
func NewMemNet(opts ...MemNetOption) *MemNet { return cluster.NewMemNet(opts...) }

// WithInboxBuffer overrides a MemNet's per-node inbox capacity.
func WithInboxBuffer(n int) MemNetOption { return cluster.WithInboxBuffer(n) }

// WithCodec selects the wire codec a MemNet uses to size simulated
// traffic, so metered bytes match a real deployment of the same codec.
func WithCodec(c Codec) MemNetOption { return cluster.WithCodec(c) }

// ListenTCP binds a TCP transport endpoint for node id on addr (use
// "127.0.0.1:0" for an ephemeral port). Wire the full deployment by
// passing every node's address map to each node's SetRegistry.
func ListenTCP(id int, addr string, opts ...TCPOption) (*TCPNode, error) {
	return cluster.ListenTCP(id, addr, opts...)
}

// WithTCPCodec selects the wire codec for all of a TCPNode's
// connections (default CodecBinary). Every node in a deployment must
// use the same codec; mismatched peers fail decoding with a
// descriptive error.
func WithTCPCodec(c Codec) TCPOption { return cluster.WithTCPCodec(c) }

// NewReliable wraps the transport endpoint of node id with
// acknowledgements, deduplication, and retransmission every retryEvery
// (<= 0 defaults to 50ms), making deployments survive lossy links.
func NewReliable(id int, inner Transport, retryEvery time.Duration) *Reliable {
	return cluster.NewReliable(id, inner, retryEvery)
}

// NewReliableWithMetrics is NewReliable with registry-backed counters
// for retransmissions and suppressed duplicates.
func NewReliableWithMetrics(id int, inner Transport, retryEvery time.Duration, reg *MetricsRegistry) *Reliable {
	return cluster.NewReliableWithMetrics(id, inner, retryEvery, reg)
}

// NewMeter wraps a transport with snapshot-only traffic accounting.
func NewMeter(inner Transport) *Meter { return cluster.NewMeter(inner) }

// NewInstrumentedMeter wraps a transport with traffic accounting that
// additionally feeds registry-backed dolbie_cluster_* counters, labeling
// per-node families with node.
func NewInstrumentedMeter(inner Transport, reg *MetricsRegistry, node string) *Meter {
	return cluster.NewInstrumentedMeter(inner, reg, node)
}

// NewSyntheticSource builds a self-contained CostSource for worker id:
// an affine latency whose slope drifts with a seeded AR(1) process,
// deterministic in (id, seed).
func NewSyntheticSource(id int, seed int64) (CostSource, error) {
	return cluster.NewSyntheticSource(id, seed)
}

// MasterID returns the node id conventionally used by the master in an
// n-worker deployment (the workers occupy ids 0..n-1).
func MasterID(n int) int { return cluster.MasterID(n) }

// MasterWorkerDeployment runs a complete Algorithm 1 deployment — the
// master on transports[n] (see MasterID) and worker i on transports[i],
// each in its own goroutine — for the given number of rounds.
// sources[i] supplies worker i's cost feedback. Options (WithMetrics,
// WithInitialAlpha, ...) configure every node.
func MasterWorkerDeployment(ctx context.Context, transports []Transport, x0 []float64, rounds int, sources []CostSource, opts ...Option) (MasterResult, []WorkerResult, error) {
	return cluster.MasterWorkerDeployment(ctx, transports, x0, rounds, sources, opts...)
}

// FullyDistributedDeployment runs a complete Algorithm 2 deployment:
// peer i on transports[i], each in its own goroutine, with no master
// and no shared cost functions. It runs RunElasticPeer with the zero
// ElasticPeerConfig and cancels every peer when one fails.
func FullyDistributedDeployment(ctx context.Context, transports []Transport, x0 []float64, rounds int, sources []CostSource, opts ...Option) ([]PeerResult, error) {
	return cluster.FullyDistributedDeployment(ctx, transports, x0, rounds, sources, opts...)
}

// RunMaster executes only the master side of Algorithm 1 over the
// transport (for multi-process deployments where workers run
// elsewhere). A positive mc.RoundTimeout adds fail-stop crash handling:
// workers that miss a collection deadline are declared crashed and
// their workload folds back into the balancing loop.
func RunMaster(ctx context.Context, tr Transport, x0 []float64, rounds int, mc MasterConfig, opts ...Option) (MasterResult, error) {
	return cluster.RunMaster(ctx, tr, x0, rounds, mc, opts...)
}

// RunWorker executes worker id of an n-worker Algorithm 1 deployment.
func RunWorker(ctx context.Context, tr Transport, id, n int, x0 float64, rounds int, src CostSource, opts ...Option) (WorkerResult, error) {
	return cluster.RunWorker(ctx, tr, id, n, x0, rounds, src, opts...)
}

// NewChaos builds a deterministic fault-injection layer from cfg. Wrap
// each node's transport with Wrap (or a whole deployment with WithChaos)
// before layering NewReliable on top when the configuration includes
// drops, duplication, or reordering — those classes need the reliability
// layer to stay protocol-transparent, while delay, jitter, partitions,
// and crashes are safe on a bare transport.
func NewChaos(cfg ChaosConfig) *Chaos { return cluster.NewChaos(cfg) }

// WithChaos wraps every transport of a deployment with the same chaos
// layer (transports[i] becomes node i) and returns the wrapped slice
// alongside the layer, whose Stats method reports the injected faults.
func WithChaos(cfg ChaosConfig, transports []Transport) ([]Transport, *Chaos) {
	chaos := cluster.NewChaos(cfg)
	return chaos.WrapAll(transports), chaos
}

// RunElasticPeer executes incumbent peer id of an Algorithm 2
// deployment, the only fully-distributed peer loop. The zero
// ElasticPeerConfig runs the paper's protocol. A positive RoundTimeout
// adds fail-stop handling: peers that miss the collection deadline are
// declared crashed, announced to the whole deployment, and their frozen
// workload share folds back into the straggler's remainder. Joiners
// are admitted by the coordinator (the lowest live id), one per round,
// and TopologyTree adds hierarchical round aggregation that reduces the
// per-round message cost from O(N^2) to ~3N with bit-identical
// consensus.
func RunElasticPeer(ctx context.Context, tr Transport, id int, x0 []float64, rounds int, src CostSource, ec ElasticPeerConfig, opts ...Option) (ElasticPeerResult, error) {
	return cluster.RunElasticPeer(ctx, tr, id, x0, rounds, src, ec, opts...)
}

// JoinElasticPeer runs a joiner: it sends a join request to the contact
// member, waits for the coordinator's admission grant (ErrJoinDenied or
// ErrJoinTimeout otherwise), adopts the granted roster snapshot, and
// participates like any incumbent from the granted round to the end of
// the deployment. Joiner ids must lie in [0, 65536).
func JoinElasticPeer(ctx context.Context, tr Transport, id, contact, rounds int, src CostSource, ec ElasticPeerConfig, opts ...Option) (ElasticPeerResult, error) {
	return cluster.JoinElasticPeer(ctx, tr, id, contact, rounds, src, ec, opts...)
}

// ElasticDeployment runs a complete elastic Algorithm 2 deployment:
// incumbent i on transports[i] and each scheduled joiner on its own
// transport, every node in its own goroutine. Joiner k must use id
// len(X0)+k. Unlike FullyDistributedDeployment, one peer's death does
// not cancel the others: crashed and self-evicted peers are reported in
// their results while the survivors keep balancing.
func ElasticDeployment(ctx context.Context, transports []Transport, dc ElasticDeploymentConfig, opts ...Option) ([]ElasticPeerResult, error) {
	return cluster.ElasticDeployment(ctx, transports, dc, opts...)
}

// NewRoster builds a version-zero roster over the given initial member
// set (elastic deployments derive later versions from join and eviction
// events).
func NewRoster(members []int) *Roster { return cluster.NewRoster(members) }

// Trajectory reassembles per-round decision vectors from a set of
// worker or peer results (the Played series of each node).
func Trajectory(played [][]float64) ([][]float64, error) { return cluster.Trajectory(played) }
