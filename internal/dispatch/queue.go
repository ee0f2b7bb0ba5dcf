package dispatch

import (
	"math"
	"sync/atomic"
)

// emptyHeadID is the head key published by an empty queue; it sorts
// after every real request ID.
const emptyHeadID = int64(math.MaxInt64)

// queue is a bounded FIFO ring buffer of requests. The zero value is
// not usable; construct with newQueue. Not safe for concurrent use on
// its own — the owning shard serializes push/peek/pop under its mutex.
// The one concurrent affordance is the head slot: the ID of the current
// head (or emptyHeadID), published atomically by every mutation so the
// dispatcher's completion path can discover the oldest head across
// shards without taking any lock. The slot lives in the dispatcher's
// flat head-key array (all shards of one worker contiguous), which
// keeps the lock-free scan inside one or two cache lines instead of
// chasing a pointer into every shard.
type queue struct {
	buf   []Request
	head  int
	count int
	// capLimit is the admission capacity, tracked separately from
	// len(buf) so the cap can be retuned at runtime (see setCap): after a
	// raise the ring doubles on each push that finds it full, up to the
	// cap, so its memory follows occupancy rather than the cap, and a
	// shrink below the current occupancy simply refuses new pushes until
	// the queue drains under the new limit.
	capLimit int
	// work is the total demand currently queued (including the
	// in-service head); the engine uses it as the worker's backlog.
	work float64
	// headSlot publishes buf[head].ID (emptyHeadID when empty) for
	// lock-free cross-shard head discovery. Written only under the shard
	// mutex.
	headSlot *atomic.Int64
}

func newQueue(capacity int, headSlot *atomic.Int64) *queue {
	q := &queue{buf: make([]Request, capacity), capLimit: capacity, headSlot: headSlot}
	q.headSlot.Store(emptyHeadID)
	return q
}

// full reports whether the queue is at capacity.
func (q *queue) full() bool { return q.count >= q.capLimit }

// len returns the number of queued requests.
func (q *queue) len() int { return q.count }

// setCap retunes the admission capacity. Queued requests are never
// dropped: shrinking below the current occupancy only stops new pushes
// until the queue drains below the new limit, and the backing ring is
// grown by push, at most to twice its occupancy, when a raise needs the
// room.
func (q *queue) setCap(capacity int) { q.capLimit = capacity }

// push appends a request; it must not be called on a full queue.
func (q *queue) push(r Request) {
	if q.full() {
		panic("dispatch: push on full queue")
	}
	if q.count == len(q.buf) {
		// The cap was raised past the ring's physical size; double it (at
		// most to the current limit), unwinding the ring into arrival
		// order.
		nb := make([]Request, min(2*len(q.buf), q.capLimit))
		for i := 0; i < q.count; i++ {
			nb[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = nb, 0
	}
	// head < len(buf) and count <= len(buf), so one conditional subtract
	// wraps the tail index — an integer divide would dominate the push.
	tail := q.head + q.count
	if tail >= len(q.buf) {
		tail -= len(q.buf)
	}
	q.buf[tail] = r
	q.count++
	q.work += r.Demand
	if q.count == 1 {
		q.headSlot.Store(r.ID)
	}
}

// peek returns the oldest request without removing it.
func (q *queue) peek() (Request, bool) {
	if q.count == 0 {
		return Request{}, false
	}
	return q.buf[q.head], true
}

// pop removes and returns the oldest request.
func (q *queue) pop() (Request, bool) {
	if q.count == 0 {
		return Request{}, false
	}
	r := q.buf[q.head]
	q.buf[q.head] = Request{}
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.count--
	q.work -= r.Demand
	if q.count == 0 {
		q.work = 0 // clear float dust so an idle worker reports zero backlog
		q.headSlot.Store(emptyHeadID)
	} else {
		q.headSlot.Store(q.buf[q.head].ID)
	}
	return r, true
}
