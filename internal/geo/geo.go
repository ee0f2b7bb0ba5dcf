// Package geo models geo-distributed worker topologies: named regions
// holding workers, an ingest frontend pinned to one region, and a
// deterministic seeded round-trip-time matrix whose links evolve via
// region-correlated AR(1) congestion processes built on trace.Process.
//
// The source paper treats network delay as invisible (its workers share
// one rack); "Load Balancing with Network Latencies via Distributed
// Gradient Descent" (Balseiro, Mirrokni, Wydrowski — PAPERS.md) is the
// blueprint this package follows instead: the effective cost of routing
// to a worker is its compute cost plus the frontend→worker RTT, over
// multi-region pools with heterogeneous, time-varying link latencies.
// The dispatch serving engine consumes this package to penalize routing
// weights and fed-back costs by the evolving RTT (DESIGN.md §16), and
// the chaos transport can source per-link delay processes from the same
// topology so fault drills and geo serving share one latency model.
//
// Everything here is deterministic given Config.Seed; a Matrix is NOT
// safe for concurrent use, matching trace.Process.
package geo

import (
	"errors"
	"fmt"
	"math"

	"dolbie/internal/trace"
)

// RegionConfig describes one region of the topology.
type RegionConfig struct {
	// Name labels the region in metrics and results; it must be
	// metrics-label-safe ([A-Za-z0-9_.-]), like tenant names.
	Name string
	// Workers is the number of workers homed in this region (≥ 1).
	Workers int
}

// Outage is a round-gated regional degradation: while the current round
// t satisfies FromRound <= t <= ToRound (0-based, inclusive — the same
// gating convention as the chaos transport's ChaosPartition), every
// inter-region link touching Region is pinned to Config.OutageRTT. It
// models a backbone cut or regional brownout; intra-region traffic is
// unaffected.
type Outage struct {
	// Region indexes Config.Regions.
	Region int
	// FromRound and ToRound bound the outage in rounds, inclusive.
	FromRound int
	ToRound   int
}

// Config parameterizes a geo topology and its RTT evolution.
type Config struct {
	// Regions lists the topology's regions in worker order: region 0
	// holds workers 0..Workers-1, region 1 the next block, and so on.
	Regions []RegionConfig
	// Frontend indexes the region hosting the ingest frontend; requests
	// pay the frontend→worker-region RTT on top of their drain latency.
	Frontend int
	// RTT is the base round-trip-time matrix in seconds: RTT[a][b] is
	// the region-a↔region-b round trip as observed from a. It must be
	// square over the regions with finite non-negative entries; asymmetry
	// is allowed (routing-policy asymmetries are real), and the diagonal
	// is the intra-region RTT (usually near zero).
	RTT [][]float64
	// Phi is the AR(1) persistence of the per-region congestion factors;
	// zero defaults to 0.9. Must stay in [0, 1).
	Phi float64
	// Sigma is the per-step standard deviation of the congestion factors
	// as a fraction of their mean 1, in [0, 1]. Zero freezes every link
	// at its base RTT — the deterministic topology the equivalence tests
	// pin against.
	Sigma float64
	// Outages lists round-gated regional degradations.
	Outages []Outage
	// OutageRTT is the RTT in seconds pinned onto links severed by an
	// active Outage; zero defaults to 10.
	OutageRTT float64
	// Seed makes the link evolution deterministic. Region r's congestion
	// process derives its seed from Seed and r only, so adding regions
	// never perturbs existing ones.
	Seed int64
}

// defaultPhi and defaultOutageRTT back the zero-value Config knobs.
const (
	defaultPhi       = 0.9
	defaultOutageRTT = 10
)

// factorMin and factorMax clamp the per-region congestion factors so
// link RTTs stay positive and bounded (the same role Clamp plays for
// the dispatch speed processes).
const (
	factorMin = 0.25
	factorMax = 4
)

// Validate checks the configuration: at least one region, every region
// named and populated, a square finite non-negative RTT matrix, a
// frontend inside the topology, and sane evolution and outage knobs.
func (c Config) Validate() error {
	if len(c.Regions) == 0 {
		return errors.New("geo: at least one region required")
	}
	for i, r := range c.Regions {
		if r.Name == "" {
			return fmt.Errorf("geo: region %d has no name", i)
		}
		for _, ch := range r.Name {
			if !(ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z' || ch >= '0' && ch <= '9' ||
				ch == '_' || ch == '.' || ch == '-') {
				return fmt.Errorf("geo: region name %q contains %q (want [A-Za-z0-9_.-])", r.Name, ch)
			}
		}
		if r.Workers <= 0 {
			return fmt.Errorf("geo: region %q has %d workers, want >= 1", r.Name, r.Workers)
		}
		for j := 0; j < i; j++ {
			if c.Regions[j].Name == r.Name {
				return fmt.Errorf("geo: duplicate region name %q", r.Name)
			}
		}
	}
	if c.Frontend < 0 || c.Frontend >= len(c.Regions) {
		return fmt.Errorf("geo: frontend region %d out of range [0, %d)", c.Frontend, len(c.Regions))
	}
	if len(c.RTT) != len(c.Regions) {
		return fmt.Errorf("geo: RTT matrix has %d rows for %d regions", len(c.RTT), len(c.Regions))
	}
	for a, row := range c.RTT {
		if len(row) != len(c.Regions) {
			return fmt.Errorf("geo: RTT row %d has %d entries for %d regions", a, len(row), len(c.Regions))
		}
		for b, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("geo: RTT[%d][%d] = %v must be finite and non-negative", a, b, v)
			}
		}
	}
	if math.IsNaN(c.Phi) || c.Phi < 0 || c.Phi >= 1 {
		return fmt.Errorf("geo: Phi = %v out of [0, 1)", c.Phi)
	}
	if math.IsNaN(c.Sigma) || c.Sigma < 0 || c.Sigma > 1 {
		return fmt.Errorf("geo: Sigma = %v out of [0, 1]", c.Sigma)
	}
	if math.IsNaN(c.OutageRTT) || math.IsInf(c.OutageRTT, 0) || c.OutageRTT < 0 {
		return fmt.Errorf("geo: OutageRTT = %v must be finite and non-negative", c.OutageRTT)
	}
	for i, o := range c.Outages {
		if o.Region < 0 || o.Region >= len(c.Regions) {
			return fmt.Errorf("geo: outage %d region %d out of range [0, %d)", i, o.Region, len(c.Regions))
		}
		if o.FromRound < 0 || o.ToRound < o.FromRound {
			return fmt.Errorf("geo: outage %d rounds [%d, %d] invalid", i, o.FromRound, o.ToRound)
		}
	}
	return nil
}

// N returns the topology's total worker count.
func (c Config) N() int {
	n := 0
	for _, r := range c.Regions {
		n += r.Workers
	}
	return n
}

// WorkerRegion maps a worker index to its region index (workers are
// homed in config order: region 0 first). It panics on out-of-range
// workers, like a slice index.
func (c Config) WorkerRegion(worker int) int {
	w := worker
	for r, rc := range c.Regions {
		if w < rc.Workers {
			return r
		}
		w -= rc.Workers
	}
	panic(fmt.Sprintf("geo: worker %d out of range [0, %d)", worker, c.N()))
}

// RegionNames returns the region names in config order.
func (c Config) RegionNames() []string {
	out := make([]string, len(c.Regions))
	for i, r := range c.Regions {
		out[i] = r.Name
	}
	return out
}

// phi and outageRTT resolve the zero-value defaults.
func (c Config) phi() float64 {
	if c.Phi == 0 {
		return defaultPhi
	}
	return c.Phi
}

func (c Config) outageRTT() float64 {
	if c.OutageRTT == 0 {
		return defaultOutageRTT
	}
	return c.OutageRTT
}

// Uniform returns a frozen topology of `regions` regions with
// `workersPerRegion` workers each and the same base RTT on every link
// (including the diagonal), no fluctuation, and the frontend in region
// 0. With rtt = 0 it is the exact region-tagged twin of a region-less
// deployment — the configuration the bit-for-bit equivalence tests run.
func Uniform(regions, workersPerRegion int, rtt float64) Config {
	rc := make([]RegionConfig, regions)
	m := make([][]float64, regions)
	for i := range rc {
		rc[i] = RegionConfig{Name: fmt.Sprintf("region%d", i), Workers: workersPerRegion}
		m[i] = make([]float64, regions)
		for j := range m[i] {
			m[i][j] = rtt
		}
	}
	return Config{Regions: rc, RTT: m}
}

// ThreeRegions returns the canonical heterogeneous topology used by the
// geo bench and the regretgeo experiment: three regions modeled on a
// US-east / EU-west / AP-south deployment with realistic wide-area base
// RTTs (2 ms intra-region, 80–180 ms across), the frontend in
// us-east, and evolving congestion (Phi 0.9, Sigma 0.08). n workers are
// spread round-robin so the regions stay within one worker of each
// other; n must be positive.
func ThreeRegions(n int, seed int64) Config {
	names := []string{"us-east", "eu-west", "ap-south"}
	rc := make([]RegionConfig, len(names))
	for i, name := range names {
		w := n / len(names)
		if i < n%len(names) {
			w++
		}
		rc[i] = RegionConfig{Name: name, Workers: w}
	}
	// Keep every region populated even for n < 3: a one-worker region is
	// still a region.
	for i := range rc {
		if rc[i].Workers == 0 {
			rc[i].Workers = 1
		}
	}
	return Config{
		Regions: rc,
		RTT: [][]float64{
			{0.002, 0.080, 0.180},
			{0.080, 0.002, 0.120},
			{0.180, 0.120, 0.002},
		},
		Phi:   0.9,
		Sigma: 0.08,
		Seed:  seed,
	}
}

// Matrix is the runtime view of a topology: the current RTT of every
// region pair, advanced one control round at a time. Link RTTs evolve
// as base[a][b] · (g_a + g_b)/2, where g_r is region r's clamped AR(1)
// congestion factor around 1 — links sharing a region co-move, which is
// what makes the fluctuation region-correlated rather than i.i.d. per
// link. Not safe for concurrent use.
type Matrix struct {
	cfg          Config
	factors      []trace.Process
	cur          []float64   // current per-region congestion factors
	rtt          [][]float64 // current RTTs, refreshed by Advance
	workerRegion []int
	round        int // rounds advanced; -1 before the first Advance
}

// NewMatrix validates cfg and builds its runtime matrix. Region r's
// congestion factor is seeded cfg.Seed + 1009r + 7; Sigma = 0 skips the
// processes entirely, so a frozen matrix never touches a RNG.
func NewMatrix(cfg Config) (*Matrix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Matrix{
		cfg:          cfg,
		cur:          make([]float64, len(cfg.Regions)),
		rtt:          make([][]float64, len(cfg.Regions)),
		workerRegion: make([]int, cfg.N()),
		round:        -1,
	}
	for a := range m.rtt {
		m.rtt[a] = append([]float64(nil), cfg.RTT[a]...)
	}
	for i := range m.cur {
		m.cur[i] = 1
	}
	for w := range m.workerRegion {
		m.workerRegion[w] = cfg.WorkerRegion(w)
	}
	if cfg.Sigma > 0 {
		m.factors = make([]trace.Process, len(cfg.Regions))
		for r := range m.factors {
			ar, err := trace.NewAR1(1, cfg.phi(), cfg.Sigma, cfg.Seed+1009*int64(r)+7)
			if err != nil {
				return nil, err
			}
			m.factors[r] = &trace.Clamp{Inner: ar, Min: factorMin, Max: factorMax}
		}
	}
	return m, nil
}

// Round returns the number of completed Advance calls minus one: the
// 0-based round the current RTTs belong to (-1 before the first call).
func (m *Matrix) Round() int { return m.round }

// Advance moves the matrix to the next round: congestion factors step,
// links recompute, and outages whose window covers the new round pin
// their region's inter-region links to OutageRTT.
func (m *Matrix) Advance() {
	m.round++
	if m.factors != nil {
		for r, p := range m.factors {
			m.cur[r] = p.Next()
		}
	}
	for a := range m.rtt {
		for b := range m.rtt[a] {
			m.rtt[a][b] = m.cfg.RTT[a][b] * (m.cur[a] + m.cur[b]) / 2
		}
	}
	for _, o := range m.cfg.Outages {
		if m.round < o.FromRound || m.round > o.ToRound {
			continue
		}
		for x := range m.rtt {
			if x == o.Region {
				continue
			}
			m.rtt[x][o.Region] = m.cfg.outageRTT()
			m.rtt[o.Region][x] = m.cfg.outageRTT()
		}
	}
}

// RTT returns the current round-trip time in seconds between regions a
// and b as observed from a.
func (m *Matrix) RTT(a, b int) float64 { return m.rtt[a][b] }

// WorkerRegion returns worker i's region index (precomputed, O(1)).
func (m *Matrix) WorkerRegion(i int) int { return m.workerRegion[i] }

// FrontendRTT returns the current frontend→worker round-trip time in
// seconds — the latency penalty a request routed to that worker pays on
// top of its drain latency.
func (m *Matrix) FrontendRTT(worker int) float64 {
	return m.rtt[m.cfg.Frontend][m.workerRegion[worker]]
}

// LinkDelay returns a deterministic one-way delay process in seconds
// for the worker-to-worker link from→to: half the evolving region RTT,
// with the link's congestion factor following its own seeded AR(1)
// chain (links are sampled at message times by the chaos transport's
// per-node pumps, not at round boundaries, so each link owns an
// independent process rather than sharing the Matrix). Feed the result
// to cluster.ChaosConfig.DelayModel so chaos drills and geo serving
// draw latency from one topology.
func (c Config) LinkDelay(from, to int) (trace.Process, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := c.N()
	if from < 0 || from >= n || to < 0 || to >= n {
		return nil, fmt.Errorf("geo: link %d→%d out of range [0, %d)", from, to, n)
	}
	base := c.RTT[c.WorkerRegion(from)][c.WorkerRegion(to)] / 2
	if c.Sigma == 0 || base == 0 {
		return &trace.Constant{Value: base}, nil
	}
	ar, err := trace.NewAR1(1, c.phi(), c.Sigma, c.Seed+104729*int64(from)+3571*int64(to)+13)
	if err != nil {
		return nil, err
	}
	return &trace.Scale{
		Inner:  &trace.Clamp{Inner: ar, Min: factorMin, Max: factorMax},
		Factor: base,
	}, nil
}
