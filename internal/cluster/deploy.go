package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"dolbie/internal/core"
)

// MasterWorkerDeployment runs a complete Algorithm 1 deployment: the
// master on transports[n] (see MasterID) and worker i on transports[i],
// each in its own goroutine, for the given number of rounds. sources[i]
// supplies worker i's local cost feedback. The call returns when every
// node finishes or any node fails; on failure the context handed to the
// surviving nodes is canceled so they unwind promptly.
func MasterWorkerDeployment(ctx context.Context, transports []Transport, x0 []float64, rounds int, sources []CostSource, opts ...core.Option) (MasterResult, []WorkerResult, error) {
	n := len(x0)
	if len(transports) != n+1 {
		return MasterResult{}, nil, fmt.Errorf("cluster: need %d transports (n workers + master), got %d", n+1, len(transports))
	}
	if len(sources) != n {
		return MasterResult{}, nil, fmt.Errorf("cluster: need %d cost sources, got %d", n, len(sources))
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		errs      []error
		masterRes MasterResult
		workerRes = make([]WorkerResult, n)
		fail      = func(err error) {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
			cancel()
		}
	)

	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := RunMaster(ctx, transports[n], x0, rounds, MasterConfig{}, opts...)
		if err != nil {
			fail(fmt.Errorf("master: %w", err))
			return
		}
		mu.Lock()
		masterRes = res
		mu.Unlock()
	}()

	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := RunWorker(ctx, transports[i], i, n, x0[i], rounds, sources[i], opts...)
			if err != nil {
				fail(fmt.Errorf("worker %d: %w", i, err))
				return
			}
			mu.Lock()
			workerRes[i] = res
			mu.Unlock()
		}(i)
	}

	wg.Wait()
	if len(errs) > 0 {
		return MasterResult{}, nil, errors.Join(errs...)
	}
	return masterRes, workerRes, nil
}

// PeerResult summarizes a completed fully-distributed peer run.
type PeerResult struct {
	// ID is the peer's index.
	ID int
	// Played[t] is the workload fraction executed in round t+1.
	Played []float64
	// Costs[t] is the realized local cost of round t+1.
	Costs []float64
	// FinalLocalAlpha is the peer's local step size after the last round.
	FinalLocalAlpha float64
	// Traffic counts the peer's protocol messages and bytes.
	Traffic TrafficStats
}

// FullyDistributedDeployment runs a complete Algorithm 2 deployment: peer
// i on transports[i], each in its own goroutine, through RunElasticPeer
// with a flat topology, no deadline and no joiners. The call returns when
// every peer finishes or any peer fails; on failure the context handed to
// the other peers is canceled so they unwind promptly. A peer whose
// transport dies, that is evicted, or that stops before the last round
// is a failure.
func FullyDistributedDeployment(ctx context.Context, transports []Transport, x0 []float64, rounds int, sources []CostSource, opts ...core.Option) ([]PeerResult, error) {
	n := len(x0)
	if len(transports) != n {
		return nil, fmt.Errorf("cluster: need %d transports, got %d", n, len(transports))
	}
	if len(sources) != n {
		return nil, fmt.Errorf("cluster: need %d cost sources, got %d", n, len(sources))
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
		res  = make([]PeerResult, n)
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := RunElasticPeer(ctx, transports[i], i, x0, rounds, sources[i], ElasticPeerConfig{}, opts...)
			switch {
			case err != nil: // a configuration, protocol or context error
			case r.Crashed:
				err = errors.New("transport died")
			case r.SelfEvicted:
				err = errors.New("evicted by its peers")
			case r.Rounds < rounds:
				err = fmt.Errorf("stopped after %d of %d rounds", r.Rounds, rounds)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("peer %d: %w", i, err))
				cancel()
				return
			}
			res[i] = PeerResult{ID: i, Played: r.Played, Costs: r.Costs, FinalLocalAlpha: r.FinalLocalAlpha, Traffic: r.Traffic}
		}(i)
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return res, nil
}

// ElasticJoin schedules one joiner of an ElasticDeployment.
type ElasticJoin struct {
	// ID is the joiner's peer id; joiners must be numbered contiguously
	// after the incumbents (len(X0), len(X0)+1, ...), matching their
	// transport index.
	ID int
	// Contact is the incumbent the join request is sent to.
	Contact int
	// Round is the earliest round the coordinator admits this joiner
	// (the admission applies two rounds later), making churn timing
	// deterministic.
	Round int
	// Source is the joiner's cost stream.
	Source CostSource
}

// ElasticDeploymentConfig parameterizes ElasticDeployment.
type ElasticDeploymentConfig struct {
	// X0 is the incumbents' initial simplex point (one entry per
	// incumbent).
	X0 []float64
	// Rounds is the deployment length.
	Rounds int
	// Sources holds one cost stream per incumbent.
	Sources []CostSource
	// Joiners schedules elastic joins (may be empty).
	Joiners []ElasticJoin
	// Peer is the per-peer runtime configuration.
	Peer ElasticPeerConfig
}

// ElasticDeployment runs a complete elastic Algorithm 2 deployment:
// incumbent i on transports[i] and scheduled joiner k on
// transports[len(X0)+k], each in its own goroutine. Unlike
// FullyDistributedDeployment, one peer's death does not cancel the
// others: crashed and self-evicted peers are reported in their results
// while the survivors keep balancing, and the returned error joins only
// genuine failures (configuration or protocol errors).
func ElasticDeployment(ctx context.Context, transports []Transport, dc ElasticDeploymentConfig, opts ...core.Option) ([]ElasticPeerResult, error) {
	n := len(dc.X0)
	total := n + len(dc.Joiners)
	if len(transports) != total {
		return nil, fmt.Errorf("cluster: need %d transports, got %d", total, len(transports))
	}
	if len(dc.Sources) != n {
		return nil, fmt.Errorf("cluster: need %d cost sources, got %d", n, len(dc.Sources))
	}
	var schedule map[int]int
	if len(dc.Joiners) > 0 {
		schedule = make(map[int]int, len(dc.Joiners))
		for k, j := range dc.Joiners {
			if j.ID != n+k {
				return nil, fmt.Errorf("cluster: joiner %d must have id %d, got %d", k, n+k, j.ID)
			}
			if j.Contact < 0 || j.Contact >= n {
				return nil, fmt.Errorf("cluster: joiner %d contact %d out of range", j.ID, j.Contact)
			}
			if j.Source == nil {
				return nil, fmt.Errorf("cluster: joiner %d has nil cost source", j.ID)
			}
			schedule[j.ID] = j.Round
		}
	}
	machines := make([]*elasticMachine, total)
	for i := range dc.X0 {
		m, err := incumbentMachine(i, dc.X0, dc.Rounds, dc.Sources[i], dc.Peer, schedule, opts)
		if err != nil {
			return nil, fmt.Errorf("peer %d: %w", i, err)
		}
		machines[i] = m
	}
	for _, j := range dc.Joiners {
		m, err := joinerMachine(j.ID, j.Contact, dc.Rounds, j.Source, dc.Peer, schedule, opts)
		if err != nil {
			return nil, fmt.Errorf("joiner %d: %w", j.ID, err)
		}
		machines[j.ID] = m
	}
	var (
		wg        sync.WaitGroup
		requested sync.WaitGroup
		mu        sync.Mutex
		errs      []error
		res       = make([]ElasticPeerResult, total)
	)
	run := func(i int, started func()) {
		defer wg.Done()
		r, err := runElastic(ctx, transports[i], machines[i], started)
		mu.Lock()
		defer mu.Unlock()
		res[i] = r
		if err != nil {
			kind := "peer"
			if i >= n {
				kind = "joiner"
			}
			errs = append(errs, fmt.Errorf("%s %d: %w", kind, i, err))
		}
	}
	// Every joiner sends its request before any incumbent starts, so the
	// request already waits in its contact's inbox at round 1 and the
	// coordinator admits it exactly at its scheduled Round. Otherwise a
	// joiner the scheduler runs late is admitted rounds late, or finds a
	// short deployment already finished.
	for _, j := range dc.Joiners {
		wg.Add(1)
		requested.Add(1)
		go run(j.ID, requested.Done)
	}
	requested.Wait()
	for i := range dc.X0 {
		wg.Add(1)
		go run(i, nil)
	}
	wg.Wait()
	if len(errs) > 0 {
		return res, errors.Join(errs...)
	}
	return res, nil
}

// Trajectory reassembles the per-round decision vectors from a set of
// worker or peer results (Played[t] of each node). All results must cover
// the same number of rounds.
func Trajectory(played [][]float64) ([][]float64, error) {
	if len(played) == 0 {
		return nil, errors.New("cluster: no nodes")
	}
	rounds := len(played[0])
	for i, p := range played {
		if len(p) != rounds {
			return nil, fmt.Errorf("cluster: node %d covers %d rounds, want %d", i, len(p), rounds)
		}
	}
	out := make([][]float64, rounds)
	for t := 0; t < rounds; t++ {
		x := make([]float64, len(played))
		for i := range played {
			x[i] = played[i][t]
		}
		out[t] = x
	}
	return out, nil
}
