package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; a span whose Parent is 0 is the root of its request.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory for the length of a run. It is used from
// one goroutine at a time.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(req, parent int, name string) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: time.Since(r.epoch)})
	return id
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.End = time.Since(r.epoch)
	return s.dur()
}

// write stores the spans as JSON lines.
func (r *recorder) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may nest or overlap;
// overlapping time is subtracted once, and child time outside the parent's
// interval is not subtracted at all.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered measures the union of the spans' intervals clipped to [lo, hi].
func covered(lo, hi time.Duration, spans []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	n         int
	dur, self time.Duration
}

// splitTimes aggregates, per span name, the durations and self times of the
// spans inside trees rooted at a span named root. The root's own self time
// is the part of the request no layer accounts for.
func splitTimes(spans []span, root string) map[string]*layerTime {
	self := selfTimes(spans)
	inTree := map[int]bool{}
	out := map[string]*layerTime{}
	for _, s := range spans { // parents precede children
		if (s.Parent == 0 && s.Name == root) || inTree[s.Parent] {
			inTree[s.ID] = true
			lt := out[s.Name]
			if lt == nil {
				lt = &layerTime{}
				out[s.Name] = lt
			}
			lt.n++
			lt.dur += s.dur()
			lt.self += self[s.ID]
		}
	}
	return out
}

// meanDurUS is the mean duration in microseconds of the spans with the name.
func meanDurUS(spans []span, name string) float64 {
	var sum time.Duration
	n := 0
	for _, s := range spans {
		if s.Name == name {
			sum += s.dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// printSplit prints the self-time split of the request trees: for each layer
// its mean duration and its share of the requests' total time, with the
// unaccounted remainder on the root's row.
func printSplit(w io.Writer, split map[string]*layerTime, root string) {
	total := split[root]
	if total == nil || total.dur == 0 {
		return
	}
	names := make([]string, 0, len(split))
	for n := range split {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintf(w, "self-time split of %d %s requests (%.1f us mean):\n", total.n, root, float64(total.dur)/float64(total.n)/1e3)
	for _, n := range names {
		lt := split[n]
		label := n
		if n == root {
			label = "unaccounted"
		}
		fmt.Fprintf(w, "  %-24s n=%-6d mean=%10.1f us  self=%5.1f%%\n",
			label, lt.n, float64(lt.dur)/float64(lt.n)/1e3, 100*float64(lt.self)/float64(total.dur))
	}
}
