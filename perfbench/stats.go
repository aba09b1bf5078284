package main

import (
	"bufio"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 < p < 100) of sorted samples by
// the nearest-rank rule.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	// The tolerance keeps float error from pushing an exact rank up by one.
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	return sorted[max(rank, 1)-1]
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// minBeyond is the number of samples a reported percentile must have beyond
// it.
const minBeyond = 10

// highestTail returns the highest percentile of tailPercentiles that has at
// least minBeyond samples beyond it, with its value. ok is false when even
// the median lacks them.
func highestTail(sorted []float64) (p, v float64, ok bool) {
	for _, p := range tailPercentiles {
		if hasBeyond(len(sorted), p) {
			return p, percentile(sorted, p), true
		}
	}
	return 0, 0, false
}

// hasBeyond reports whether n samples leave at least minBeyond samples above
// the p-th percentile.
func hasBeyond(n int, p float64) bool {
	return float64(n)*(1-p/100) >= minBeyond-1e-9
}

// sample is one completed operation: when it completed, measured from the
// start of the window, and its latency in milliseconds.
type sample struct {
	at time.Duration
	ms float64
}

// latencies collects operation samples.
type latencies []sample

func (l *latencies) add(at, d time.Duration) {
	*l = append(*l, sample{at, float64(d) / float64(time.Millisecond)})
}

func (l latencies) sorted() []float64 {
	out := make([]float64, len(l))
	for i, s := range l {
		out[i] = s.ms
	}
	slices.Sort(out)
	return out
}

// summary is the printed form of one operation type's latencies: the median
// and the highest percentile with minBeyond samples beyond it.
func (l latencies) summary(name string) string {
	s := l.sorted()
	p, v, ok := highestTail(s)
	if !ok {
		return fmt.Sprintf("%-10s n=%d (too few samples for a percentile)", name, len(s))
	}
	return fmt.Sprintf("%-10s n=%-6d p50=%.3f ms  p%g=%.3f ms", name, len(s), percentile(s, 50), p, v)
}

// numSlices is how many equal slices of the window the robust statistics
// take their median over.
const numSlices = 7

// slices splits the samples into numSlices equal slices of the window; a
// sample completing after the last whole slice goes into the last one.
func (l latencies) slices(window time.Duration) []latencies {
	out := make([]latencies, numSlices)
	width := window / numSlices
	for _, s := range l {
		i := min(int(s.at/max(width, 1)), numSlices-1)
		out[i] = append(out[i], s)
	}
	return out
}

// slicedPercentile is the median over the window's slices of each slice's
// p-th percentile, which keeps one slow burst (a fsync stall on a shared
// disk, a neighbour's load) from moving the run's figure. When a slice has
// fewer than minBeyond samples beyond p, it falls back to the percentile
// over the whole window. It returns the number of slices used, 1 for the
// fallback.
func (l latencies) slicedPercentile(p float64, window time.Duration) (float64, int) {
	parts := l.slices(window)
	var per []float64
	for _, part := range parts {
		if !hasBeyond(len(part), p) {
			return percentile(l.sorted(), p), 1
		}
		per = append(per, percentile(part.sorted(), p))
	}
	return median(per), len(parts)
}

// sliceRates returns each slice's operations per second.
func (l latencies) sliceRates(window time.Duration) []float64 {
	var per []float64
	for _, part := range l.slices(window) {
		per = append(per, float64(len(part))/(window/numSlices).Seconds())
	}
	return per
}

// procIO is a snapshot of /proc/self/io.
type procIO struct{ rchar, wchar, syscr, syscw int64 }

func readProcIO() procIO {
	var io procIO
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return io
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		switch name {
		case "rchar":
			io.rchar = n
		case "wchar":
			io.wchar = n
		case "syscr":
			io.syscr = n
		case "syscw":
			io.syscw = n
		}
	}
	return io
}

// procIOReads is the number of read calls one readProcIO makes, which a
// delta between two snapshots includes once.
var procIOReads = func() int64 {
	a := readProcIO()
	return readProcIO().sub(a).syscr
}()

func (a procIO) sub(b procIO) procIO {
	return procIO{a.rchar - b.rchar, a.wchar - b.wchar, a.syscr - b.syscr, a.syscw - b.syscw}
}

// hostCPU is a snapshot of the machine's CPU time from /proc/stat, in
// clock ticks: all of it, and the part the hypervisor gave to other guests.
type hostCPU struct{ total, steal int64 }

func readHostCPU() hostCPU {
	var c hostCPU
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return c
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user..steal; guest time is already counted in user
			c.total += n
		}
		if i == 7 {
			c.steal = n
		}
	}
	return c
}

// stealPct is the share of the machine's CPU time between two snapshots that
// the hypervisor gave to other guests.
func stealPct(from, to hostCPU) float64 {
	if to.total == from.total {
		return 0
	}
	return 100 * float64(to.steal-from.steal) / float64(to.total-from.total)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return math.NaN()
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample reads cumulative heap allocation and GC/total CPU seconds
// from runtime/metrics.
type runtimeSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// geomean returns the geometric mean of positive values.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var logs float64
	for _, x := range v {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(v)))
}

func median(v []float64) float64 {
	return percentile(slices.Sorted(slices.Values(v)), 50)
}

func sortedKeys[V any](m map[string]V) []string {
	return slices.Sorted(maps.Keys(m))
}
