package dispatch

// Submitter is a per-goroutine admission handle that replaces
// hash-to-shard with submitter-sticky shard choice: every Submitter is
// assigned a home shard round-robin at construction, and SubmitBatch
// admits whole chunks of requests into one shard per critical section —
// one lock acquire, up to Config.BatchSize smooth-WRR steps, one
// depth commit. On a contended home shard the chunk falls over to the
// first free shard in ring order (TryLock, never queueing), so batched
// submitters keep every shard busy without ever blocking behind each
// other; only when every shard is contended does the submitter queue on
// its home mutex. A Submitter is not safe for concurrent use — create
// one per submitting goroutine (they are cheap: a pointer and an int).
//
// Semantics per request are identical to Submit, which runs the same
// admission body (rate contract, priority threshold, routing pick, and
// counters, committed in one shard critical section); only the shard
// *choice* differs, which routing-wise is invisible — every shard runs
// the same smooth-WRR over the same weights and its own exact slice of
// per-worker capacity.
type Submitter struct {
	d    *Dispatcher
	home int
}

// NewSubmitter creates an admission handle with the next home shard in
// round-robin order, so a pool of submitter goroutines spreads sticky
// affinity across every shard (and their chunks cover every shard's
// capacity slice).
func (d *Dispatcher) NewSubmitter() *Submitter {
	home := int(d.nextHome.Add(1)-1) % len(d.shards)
	return &Submitter{d: d, home: home}
}

// lockShard acquires one shard for a chunk: the home shard when it is
// free (an affinity hit), otherwise the first free shard in ring order,
// and — only when every shard is contended — a blocking wait on the
// home mutex. The second return reports the affinity hit.
func (sub *Submitter) lockShard() (*shard, bool) {
	d := sub.d
	home := d.shards[sub.home]
	if home.mu.TryLock() {
		return home, true
	}
	for i := 1; i < len(d.shards); i++ {
		s := d.shards[(sub.home+i)%len(d.shards)]
		if s.mu.TryLock() {
			return s, false
		}
	}
	home.mu.Lock()
	return home, false
}

// SubmitBatch admits every request in rs, in order, in chunks of up to
// Config.BatchSize per shard critical section, and appends one verdict
// per request to out (returned like append). Each chunk costs one shard
// lock acquire, one drain-gate read, one dispatcher depth commit, and
// one batch-counter update regardless of width; within the chunk every
// request runs Submit's admission body (rate contract, priority
// threshold, smooth-WRR pick, queue push or shed/block), so outcome
// counting and both conservation laws are exactly those of Submit.
//
// With Config.BatchSize <= 1 every chunk is a single request — the same
// critical-section shape as Submit, differing only in the sticky shard
// choice.
func (sub *Submitter) SubmitBatch(rs []Request, out []Verdict) []Verdict {
	d := sub.d
	batch := d.cfg.batchSize()
	for len(rs) > 0 {
		n := len(rs)
		if n > batch {
			n = batch
		}
		chunk := rs[:n]
		rs = rs[n:]
		s, hit := sub.lockShard()
		var queued int64
		out, queued = d.admitLocked(s, chunk, out)
		s.batches++
		s.batchAdmitted += int64(n)
		if queued > 0 {
			d.depth.Add(queued)
		}
		s.mu.Unlock()
		if hit {
			d.affinityHits.Add(1)
		} else {
			d.affinityMisses.Add(1)
		}
	}
	return out
}

// BatchStats is a consistent snapshot of the batched-admission tally.
type BatchStats struct {
	// Batches counts SubmitBatch critical sections committed; Admitted
	// the requests they carried (Admitted/Batches is the realized batch
	// width).
	Batches  int64
	Admitted int64
	// AffinityHits / AffinityMisses count chunk shard acquisitions that
	// landed on / fell away from the submitter's home shard.
	AffinityHits   int64
	AffinityMisses int64
}

// BatchStats returns the batched-admission counters: the per-shard
// batch tally under a stop-the-world epoch (consistent with Totals) and
// the lock-free affinity counters.
func (d *Dispatcher) BatchStats() BatchStats {
	st := BatchStats{
		AffinityHits:   d.affinityHits.Load(),
		AffinityMisses: d.affinityMisses.Load(),
	}
	d.lockAll()
	for _, s := range d.shards {
		st.Batches += s.batches
		st.Admitted += s.batchAdmitted
	}
	d.unlockAll()
	return st
}
