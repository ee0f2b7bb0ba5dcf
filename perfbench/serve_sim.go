package main

import (
	"fmt"

	"dolbie/internal/dispatch"
)

// serveSim runs dispatch.Serve jobs back to back on one goroutine, each
// a 30-round DOLBIE closed loop with the default serving configuration
// at its own seed. An op is one job. This is the virtual-time engine
// every figure and dolbie-serve simulation runs: per-request Submit and
// Complete, the engine loop, result percentiles and the speed traces.
type serveSim struct {
	seed     int64
	next     int64 // job counter; job j runs at seed jobSeed(j)
	costs    []float64
	arrivals int64
	shed     int64
	jobs     int64
	bad      []string
}

const serveRounds = 30

func (s *serveSim) opsPerSecond() float64 { return 240 }

func (s *serveSim) jobSeed(j int64) int64 { return s.seed*1_000_003 + j }

func (s *serveSim) setup(seed int64, work float64) error {
	s.seed = seed
	// The warm-up runs seeds disjoint from the timed jobs (negative job
	// indexes) so the timed inputs depend only on --seed.
	for j := int64(1); j <= int64(max(1, 40*work)); j++ {
		if _, err := s.job(-j); err != nil {
			return err
		}
	}
	return nil
}

func (s *serveSim) job(j int64) (*dispatch.ServeResult, error) {
	cfg := dispatch.DefaultServeConfig()
	cfg.Rounds = serveRounds
	cfg.Seed = s.jobSeed(j)
	return dispatch.Serve(cfg)
}

func (s *serveSim) runSlice(sl *slice) error {
	h := sl.hists[0]
	for i := 0; i < sl.ops; i++ {
		j := s.next
		s.next++
		t0 := nanotime()
		res, err := s.job(j)
		h.add(nanotime() - t0)
		if err != nil {
			sl.failed++
			s.bad = append(s.bad, fmt.Sprintf("job %d: %v", j, err))
			continue
		}
		s.check(j, res)
		s.costs = append(s.costs, res.MaxWorkerLatencyMean)
		s.arrivals += res.Arrivals
		s.shed += res.ShedCount
		s.jobs++
	}
	return nil
}

// check verifies one job's request accounting: every arrival was
// completed, shed, blocked, or is still queued, and the queues cannot
// hold more than N × QueueCap.
func (s *serveSim) check(j int64, res *dispatch.ServeResult) {
	queued := res.Arrivals - res.Completed - res.ShedCount - res.Blocked
	if res.Rounds != serveRounds || res.Completed <= 0 || queued < 0 || queued > int64(res.N*res.QueueCap) {
		s.bad = append(s.bad, fmt.Sprintf("job %d does not conserve requests: rounds=%d arrivals=%d completed=%d shed=%d blocked=%d",
			j, res.Rounds, res.Arrivals, res.Completed, res.ShedCount, res.Blocked))
	}
}

func (s *serveSim) prepare(*slice) error { return nil }

func (s *serveSim) settle(*slice) error { return nil }

func (s *serveSim) finish(r *result) error {
	// Replaying the first timed job must give the same global cost bit
	// for bit: the engine is deterministic per seed.
	if len(s.costs) > 0 {
		res, err := s.job(0)
		if err != nil || res.MaxWorkerLatencyMean != s.costs[0] {
			s.bad = append(s.bad, fmt.Sprintf("replay of job 0 differs: err=%v", err))
		}
	}
	for _, b := range s.bad {
		r.fail("serve_sim: %s", b)
	}
	r.globalCost = mean(s.costs)
	if s.jobs > 0 {
		r.perLayer["dispatch.serve.shed_frac"] = float64(s.shed) / float64(s.arrivals)
		r.perLayer["dispatch.serve.requests_per_job"] = float64(s.arrivals) / float64(s.jobs)
	}
	return nil
}

func (s *serveSim) close() {}
