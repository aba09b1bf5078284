package main

import (
	"testing"
	"time"
)

func mk(id, parent int, name string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Req: 1, Name: name, Start: start, End: end}
}

func TestSelfTimeNestedChildren(t *testing.T) {
	spans := []span{
		mk(1, 0, "query", 0, 100),
		mk(2, 1, "parse", 10, 20),
		mk(3, 1, "exec", 30, 80),
		mk(4, 3, "first_row", 30, 50),
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 40, 2: 10, 3: 30, 4: 20} {
		if self[id] != want {
			t.Errorf("self[%d] = %v, want %v", id, self[id], want)
		}
	}
}

func TestSelfTimeOverlappingChildrenCountOnce(t *testing.T) {
	spans := []span{
		mk(1, 0, "query", 0, 100),
		mk(2, 1, "a", 10, 50),
		mk(3, 1, "b", 40, 70),  // overlaps a by 10
		mk(4, 1, "c", 45, 60),  // inside a ∪ b
		mk(5, 1, "d", 90, 130), // runs past the parent's end
	}
	if got, want := selfTimes(spans)[1], time.Duration(100-60-10); got != want {
		t.Errorf("self = %v, want %v", got, want)
	}
}

func TestSplitTimesReportsUnaccounted(t *testing.T) {
	spans := []span{
		mk(1, 0, "query", 0, 100),
		mk(2, 1, "parse", 0, 30),
		mk(3, 0, "probe", 100, 200),
		mk(4, 3, "lookup", 100, 150),
		mk(5, 0, "query", 200, 250),
		mk(6, 5, "parse", 200, 240),
	}
	split := splitTimes(spans, "query")
	if len(split) != 2 {
		t.Fatalf("split has %d names, want query and parse only", len(split))
	}
	if q := split["query"]; q.n != 2 || q.dur != 150 || q.self != 80 {
		t.Errorf("query: %+v, want n=2 dur=150 self=80", *q)
	}
	if p := split["parse"]; p.n != 2 || p.dur != 70 || p.self != 70 {
		t.Errorf("parse: %+v, want n=2 dur=70 self=70", *p)
	}
}
