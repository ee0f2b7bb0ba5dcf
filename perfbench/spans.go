package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public entry point of the program. Spans of one op share op; parent
// indexes the enclosing span in the same log (-1 for a root).
type span struct {
	name   string
	start  int64 // ns since the run's epoch
	end    int64
	parent int
	op     int64
}

func (s span) dur() int64 { return s.end - s.start }

// spanLog is an append-only span buffer with a fixed capacity, so
// recording never allocates inside a timed slice. Spans past capacity
// are dropped rather than grown into; each workload sizes its log for
// the spans a slice records.
type spanLog struct {
	spans []span
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{spans: make([]span, 0, capacity)}
}

// add records a span and returns its index, or -1 when the log is full.
func (l *spanLog) add(name string, start, end int64, parent int, op int64) int {
	if len(l.spans) == cap(l.spans) {
		return -1
	}
	l.spans = append(l.spans, span{name: name, start: start, end: end, parent: parent, op: op})
	return len(l.spans) - 1
}

// epoch anchors span timestamps; time.Since reads the monotonic clock.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its direct children cover. Overlapping children
// are counted once, and a child's own children are already inside the
// child, so only direct children are subtracted.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval.
func covered(parent span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// durationsUS collects the durations, in µs, of the spans named name.
func durationsUS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}
