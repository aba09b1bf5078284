package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestHighestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		wantP  float64
		wantOK bool
	}{
		{10000, 99.9, true}, // exactly 10 beyond p99.9
		{9999, 99, true},
		{1000, 99, true},
		{999, 90, true},
		{100, 90, true},
		{99, 50, true},
		{20, 50, true},
		{19, 0, false},
	} {
		p, v, ok := highestTail(seq(c.n))
		if ok != c.wantOK || p != c.wantP {
			t.Errorf("n=%d: got p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.wantP, c.wantOK)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: p%v = %v leaves %d samples beyond it", c.n, p, v, beyond)
		}
	}
}

func TestSummaryReportsSampleCount(t *testing.T) {
	var l latencies
	for i := 1; i <= 1000; i++ {
		l.add(0, time.Duration(i)*time.Millisecond)
	}
	if got, want := l.summary("q"), "q          n=1000   p50=500.000 ms  p99=990.000 ms"; got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
}

func TestKindP50GeomeanSkipsInserts(t *testing.T) {
	o := &outcome{byKind: map[string]*latencies{}, queryKinds: map[string]bool{}}
	for i := 1; i <= 3; i++ {
		o.record("fast", false, time.Duration(i)*time.Millisecond, 0)       // p50 2 ms
		o.record("slow", false, time.Duration(i)*8*time.Millisecond, 0)     // p50 16 ms
		o.record("insert", true, time.Duration(i)*1000*time.Millisecond, 0) // not a query
	}
	gm, kinds := o.kindP50Geomean()
	if kinds != 2 || math.Abs(gm-math.Sqrt(2*16)) > 1e-9 {
		t.Errorf("kindP50Geomean = %v over %d kinds, want %v over 2", gm, kinds, math.Sqrt(2*16))
	}
}
