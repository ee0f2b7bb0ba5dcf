package main

import "testing"

func TestSelfTimeSubtractsDirectChildren(t *testing.T) {
	spans := []span{
		{name: "round", start: 0, end: 100, parent: -1},
		{name: "send", start: 10, end: 30, parent: 0},
		{name: "recv", start: 25, end: 50, parent: 0},   // overlaps send: counted once
		{name: "decode", start: 30, end: 40, parent: 2}, // grandchild of round
		{name: "late", start: 90, end: 120, parent: 0},  // clipped to the parent
		{name: "other", start: 0, end: 10, parent: -1},
	}
	self := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 25 - 10, 10, 30, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].name, self[i], want[i])
		}
	}
}

func TestSpanLogNeverGrows(t *testing.T) {
	l := newSpanLog(2)
	for i := 0; i < 3; i++ {
		l.add("x", int64(i), int64(i+1), -1, int64(i))
	}
	if len(l.spans) != 2 || cap(l.spans) != 2 {
		t.Fatalf("len %d cap %d, want 2 and 2", len(l.spans), cap(l.spans))
	}
	if got := durationsUS(l.spans, "x"); len(got) != 2 || got[0] != 0.001 {
		t.Errorf("durationsUS = %v", got)
	}
}
