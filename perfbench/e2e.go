package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"asterixdb"
	"asterixdb/internal/adm"
	"asterixdb/internal/storage"
)

// insertsPerSecond sizes ingest-mixed's seeded insert stream: the stream
// holds insertsPerSecond × seconds records. The window ends early if it
// consumes them all; what it leaves is inserted after the window.
const insertsPerSecond = 3500

// setupReps is how many times set-up is timed, and recoverReps how many
// times the closing reopen is; each reports the median.
const (
	setupReps   = 3
	recoverReps = 5
)

// warmup is how long the clients run, unmeasured and checked, before the
// window, so the window starts with warm connections, caches and GC pacing.
// The warm-up streams use another seed than the window's.
const (
	warmup           = 2 * time.Second
	warmupSeedOffset = 1 << 40
)

// warmupStreams returns the warm-up's request sources: the workload's own
// mix, or for a workload that inserts, its reads only.
func warmupStreams(def workloadDef, d *data, seed int64) []stream {
	seed += warmupSeedOffset
	if def.inserts {
		return perClient(def.clients, func(c int) stream { return authorReads{d, clientRand(seed, c)} })
	}
	return def.newStreams(d, seed, def.clients, nil)
}

// topUpLimit bounds the unmeasured insertion of the stream's remainder.
const topUpLimit = 10 * time.Minute

func runEndToEnd(cfg config, def workloadDef, d *data, dir string) (*result, error) {
	fmt.Printf("workload %s, seed %d: %d users, %d messages, %d partitions, journaled=%v, ngram index=%v, %d closed-loop clients, %s window\n",
		def.name, cfg.seed, len(d.users), len(d.msgs), partitions, def.spec.journaled, def.spec.ngram, def.clients, cfg.window)

	// Set-up is timed setupReps times; the last store is kept.
	var setups []float64
	var inst *asterixdb.Instance
	var store string
	for i := range setupReps {
		if inst != nil {
			if err := inst.Close(); err != nil {
				return nil, err
			}
			os.RemoveAll(store)
		}
		store = filepath.Join(dir, fmt.Sprintf("store%d", i))
		syscall.Sync() // the previous set-up's writes stay out of this one's timing
		start := time.Now()
		var err error
		if inst, err = setup(store, def.spec, d); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	syscall.Sync()
	front, err := startHTTP(inst, def.clients)
	if err != nil {
		inst.Close()
		return nil, err
	}
	a := newAcks(d)
	warm := runClosedLoop(front, warmupStreams(def, d, cfg.seed), min(warmup, cfg.window), a)
	seq := &insertSeq{limit: int(insertsPerSecond * cfg.window.Seconds())}
	cpu0 := readHostCPU()
	o := runClosedLoop(front, def.newStreams(d, cfg.seed, def.clients, seq), cfg.window, a)
	steal := stealPct(cpu0, readHostCPU())
	var topUp *outcome
	if def.inserts {
		topUp = runClosedLoop(front, perClient(def.clients, func(int) stream { return insertOnly{d, seq} }), topUpLimit, a)
	}
	if err := front.close(); err != nil {
		inst.Close()
		return nil, err
	}
	dur, err := closeAndRecover(inst, store, def.spec, d, a.ackedIDs())
	if err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit, note string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Printf("%-20s = %12.4f %-5s %s\n", name, v, unit, note)
	}
	all := append(append(latencies{}, o.queries...), o.inserts...)
	pct := func(l latencies, p float64) (float64, string) {
		v, n := l.slicedPercentile(p, o.elapsed)
		how := "whole window"
		if n > 1 {
			how = fmt.Sprintf("median of %d slices", n)
		}
		return v, fmt.Sprintf("(n=%d, %s)", len(l), how)
	}
	put("setup_s", median(setups), "s", fmt.Sprintf("(median of %d set-ups: %.3f)", len(setups), setups))
	gm, kinds := o.kindP50Geomean()
	put("query_p50_geomean_ms", gm, "ms", fmt.Sprintf("(n=%d, geometric mean of the p50s of %d query kinds)", len(o.queries), kinds))
	p99, note := pct(o.queries, 99)
	put("query_p99_ms", p99, "ms", note)
	put("ops_per_s", median(all.sliceRates(o.elapsed)), "1/s", fmt.Sprintf("(median of %d slices; %d ops in %.3f s)", numSlices, len(all), o.elapsed.Seconds()))
	put("space_amp", dur.spaceAmp, "ratio", fmt.Sprintf("(%d data-dir bytes / %d ADM text bytes)", dur.dirBytes, dur.textBytes))
	put("peak_rss_mb", peakRSSMB(), "MB", "(VmHWM of the benchmark process)")
	if !hasBeyond(len(o.queries), 99) {
		fmt.Printf("WARNING: %d queries leave fewer than %d samples beyond p99\n", len(o.queries), minBeyond)
	}

	fmt.Println("latency by operation:")
	for _, c := range []struct {
		name, rate string
		l          latencies
	}{{"insert", "inserts_per_s", o.inserts}, {"query", "queries_per_s", o.queries}} {
		if len(c.l) == 0 {
			continue
		}
		p50, note50 := pct(c.l, 50)
		p99, note99 := pct(c.l, 99)
		fmt.Printf("  %s_p50_ms = %.4f ms %s\n  %s_p99_ms = %.4f ms %s\n  %s = %.1f\n",
			c.name, p50, note50, c.name, p99, note99, c.rate, median(c.l.sliceRates(o.elapsed)))
	}
	for _, k := range sortedKeys(o.byKind) {
		fmt.Printf("    %s\n", o.byKind[k].summary(k))
	}
	fmt.Printf("ops/s per slice: %.0f\n", all.sliceRates(o.elapsed))
	// Time the hypervisor gives to other guests slows every timed figure.
	fmt.Printf("CPU time stolen by the host during the window: %.1f%%\n", steal)

	fmt.Printf("warm-up before the window: %d requests in %.3f s\n", warm.attempts, warm.elapsed.Seconds())
	res.Attempted = warm.attempts + o.attempts + 1 // the durability check counts as one operation
	res.Failed = warm.failed + o.failed
	failures := append(warm.failures, o.failures...)
	if topUp != nil {
		fmt.Printf("top-up after the window: %d inserts in %.3f s\n", topUp.attempts, topUp.elapsed.Seconds())
		res.Attempted += topUp.attempts
		res.Failed += topUp.failed
		failures = append(failures, topUp.failures...)
	}
	if dur.err != nil {
		res.Failed++
		failures = append(failures, "durability: "+dur.err.Error())
	}
	// recover_s is printed, not reported: see README.md.
	fmt.Printf("recover_s = %.4f s (median of %d reopens: %.3f)\n", median(dur.recover), len(dur.recover), dur.recover)
	fmt.Printf("acknowledged inserts: %d; durability check: %s\n", dur.acked, okText(dur.err))
	fmt.Printf("messages at reopen: %d primary and %d secondary disk components\n", dur.layout.Components, dur.layout.SecondaryComponents)
	fmt.Printf("error_ratio = %.6f (%d failed of %d attempted)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func okText(err error) string {
	if err != nil {
		return "FAILED: " + err.Error()
	}
	return "ok"
}

// durability is the outcome of closeAndRecover.
type durability struct {
	recover             []float64
	dirBytes, textBytes int64
	spaceAmp            float64
	acked               int
	// layout is the messages' LSM state after the first reopen.
	layout storage.DatasetStats
	// err is a lost or extra record found after the reopen.
	err error
}

// closeAndRecover closes the instance, measures the data directory, then
// reopens it recoverReps times (Open, DDL, Recover), timing each. After the
// first reopen it checks that every acknowledged insert is found by primary
// key and that the message count is the preload plus the acknowledged
// inserts. An error return means the reopen itself failed.
func closeAndRecover(inst *asterixdb.Instance, store string, spec instanceSpec, d *data, acked []int32) (*durability, error) {
	if err := inst.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	res := &durability{acked: len(acked), textBytes: d.textBytes}
	for _, id := range acked {
		res.textBytes += int64(len(d.extraMessage(int(id) - len(d.msgs)).String()))
	}
	var err error
	if res.dirBytes, err = dirBytes(store); err != nil {
		return nil, err
	}
	res.spaceAmp = float64(res.dirBytes) / float64(res.textBytes)
	for i := range recoverReps {
		runtime.GC() // each reopen starts from the same heap
		syscall.Sync()
		start := time.Now()
		inst, err := openInstance(store, spec)
		if err != nil {
			return nil, err
		}
		if err := inst.Recover(); err != nil {
			inst.Close()
			return nil, fmt.Errorf("recover: %w", err)
		}
		res.recover = append(res.recover, time.Since(start).Seconds())
		if i == 0 {
			res.err = verifyStore(inst, d, acked)
			if msgs, ok := inst.Dataset("MugshotMessages"); ok {
				res.layout = msgs.Stats()
			}
		}
		if err := inst.Close(); err != nil {
			return nil, fmt.Errorf("close after recovery: %w", err)
		}
	}
	return res, nil
}

// verifyStore checks a reopened store against the generated data and the
// acknowledged inserts.
func verifyStore(inst *asterixdb.Instance, d *data, acked []int32) error {
	msgs, ok := inst.Dataset("MugshotMessages")
	users, ok2 := inst.Dataset("MugshotUsers")
	if !ok || !ok2 {
		return fmt.Errorf("datasets missing after reopen")
	}
	for _, id := range acked {
		rec, found, err := msgs.LookupPK(adm.Int32(id))
		if err != nil {
			return fmt.Errorf("lookup %d: %w", id, err)
		}
		if !found || intField(rec, "message-id") != id {
			return fmt.Errorf("acknowledged message-id %d lost", id)
		}
	}
	n, err := msgs.Count()
	if err != nil {
		return fmt.Errorf("count messages: %w", err)
	}
	if n != len(d.msgs)+len(acked) {
		return fmt.Errorf("messages: count %d, want %d preloaded + %d acknowledged", n, len(d.msgs), len(acked))
	}
	if n, err = users.Count(); err != nil {
		return fmt.Errorf("count users: %w", err)
	}
	if n != len(d.users) {
		return fmt.Errorf("users: count %d, want %d", n, len(d.users))
	}
	return nil
}
