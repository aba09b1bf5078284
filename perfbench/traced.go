package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"asterixdb"
	"asterixdb/internal/adm"
	"asterixdb/internal/algebra"
	"asterixdb/internal/aql"
	"asterixdb/internal/expr"
	"asterixdb/internal/hyracks"
	"asterixdb/internal/storage"
	"asterixdb/internal/translator"
)

// probeInserts is the size of the insert probe the read-only workloads'
// traced runs end with, so every workload reports the write-path layers.
const probeInserts = 500

// opKinds groups profile operator names into the kinds the traced run
// reports self time for. Only kinds every workload executes are reported
// as metrics; the rest are printed.
var reportedOpKinds = []string{"access", "sort", "select", "result"}

func opKind(name string) string {
	base, _, _ := strings.Cut(name, "(")
	switch base {
	case "datasource-scan", "btree-search", "rtree-search", "inverted-search":
		return "access"
	case "distribute-result":
		return "result"
	}
	return base
}

// tracer replays a request stream through each layer's public calls and
// accumulates the per-layer measurements.
type tracer struct {
	rec *recorder
	// main is the workload's instance; twin holds the same data, journaled.
	main, twin *asterixdb.Instance
	front      *httpFront
	jobOpts    translator.JobOptions
	rng        *rand.Rand
	d          *data
	req        int

	queries, inserts int
	// serverOverhead holds, per query, the HTTP round trip minus the
	// in-process QueryStream + drain + AppendJSON of the same statement, in
	// microseconds.
	serverOverhead []float64
	// tracedTotal and inprocTotal sum the traced decomposed query path and
	// the untraced in-process path, for the tracing overhead.
	tracedTotal, inprocTotal time.Duration
	scanned, results         int64
	execTotal                time.Duration
	opSelf                   map[string]time.Duration
	// Process counters summed around the decomposed calls only.
	readCalls   int64
	journaledIO procIO
	cpu         time.Duration
	allocBytes  uint64
	failures    []string
	failed      int
}

func (t *tracer) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < maxFailureNotes {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// measured runs fn and adds its CPU time and heap allocation to the
// tracer's per-operation totals.
func (t *tracer) measured(fn func()) {
	rt0, cpu0 := readRuntime(), cpuTime()
	fn()
	t.cpu += cpuTime() - cpu0
	t.allocBytes += readRuntime().allocBytes - rt0.allocBytes
}

// query runs one query three ways: over HTTP, in process through
// QueryStream, and through the decomposed layer calls with spans. The order
// rotates from query to query so no path always runs first on cold caches.
// All three answers must pass the request's check.
func (t *tracer) query(r *request, check func([][]byte) error) {
	t.queries++
	var httpDur, inproc time.Duration
	var prof *hyracks.JobProfile
	paths := []func() error{
		func() error {
			start := time.Now()
			rows, err := t.front.query(r.stmt)
			httpDur = time.Since(start)
			return checked(rows, err, check, "over HTTP")
		},
		func() error {
			start := time.Now()
			rows, err := inprocQuery(t.main, r.stmt)
			inproc = time.Since(start)
			return checked(rows, err, check, "in process")
		},
		func() error {
			t.req++
			var rows [][]byte
			var err error
			io0 := readProcIO()
			t.measured(func() { rows, prof, err = t.decomposedQuery(r.stmt) })
			t.readCalls += readProcIO().sub(io0).syscr - procIOReads
			return checked(rows, err, check, "decomposed")
		},
	}
	for i := range paths {
		if err := paths[(t.queries+i)%len(paths)](); err != nil {
			t.fail("%s: %v", r.kind, err)
			return
		}
	}
	t.serverOverhead = append(t.serverOverhead, float64(httpDur-inproc)/1e3)
	t.inprocTotal += inproc
	t.addProfile(prof)
	t.probeStorage()
}

func checked(rows [][]byte, err error, check func([][]byte) error, path string) error {
	if err == nil {
		err = check(rows)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// inprocQuery is the server's work without HTTP: QueryStream, drain, and
// AppendJSON of every row.
func inprocQuery(inst *asterixdb.Instance, stmt string) ([][]byte, error) {
	cur, err := inst.QueryStream(context.Background(), stmt)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	var rows [][]byte
	for cur.Next() {
		rows = append(rows, adm.AppendJSON(nil, cur.Value()))
	}
	return rows, cur.Err()
}

// decomposedQuery runs Parse → Compile → BuildJob (with the instance's job
// options) → ExecuteStream → AppendJSON, one span per layer.
func (t *tracer) decomposedQuery(stmt string) ([][]byte, *hyracks.JobProfile, error) {
	rec, req := t.rec, t.req
	root := rec.begin(req, 0, "query")
	defer func() { t.tracedTotal += rec.end(root) }()

	sp := rec.begin(req, root, "aql.parse")
	stmts, err := aql.Parse(stmt)
	rec.end(sp)
	if err != nil {
		return nil, nil, err
	}
	q, ok := stmts[len(stmts)-1].(*aql.QueryStatement)
	if len(stmts) != 1 || !ok {
		return nil, nil, fmt.Errorf("not a single query: %q", stmt)
	}

	sp = rec.begin(req, root, "translator.compile")
	plan, err := translator.Compile(q.Body, t.main, algebra.Options{})
	rec.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = rec.begin(req, root, "translator.build")
	job, err := translator.BuildJob(plan, t.main, t.jobOpts)
	rec.end(sp)
	if err != nil {
		return nil, nil, err
	}
	job.Profile = true

	exec := rec.begin(req, root, "hyracks.exec")
	first := rec.begin(req, exec, "hyracks.first_row")
	cur, err := hyracks.ExecuteStream(context.Background(), job)
	if err != nil {
		rec.end(first)
		rec.end(exec)
		return nil, nil, err
	}
	var values []adm.Value
	for started := false; ; {
		tup, ok := cur.Next()
		if !started {
			rec.end(first)
			started = true
		}
		if !ok {
			break
		}
		if len(tup) > 0 {
			values = append(values, tup[0])
		}
	}
	err = cur.Err()
	if closeErr := cur.Close(); err == nil {
		err = closeErr
	}
	t.execTotal += rec.end(exec)
	if err != nil {
		return nil, nil, err
	}
	t.results += int64(len(values))

	sp = rec.begin(req, root, "adm.json")
	rows := make([][]byte, len(values))
	for i, v := range values {
		rows[i] = adm.AppendJSON(nil, v)
	}
	rec.end(sp)
	return rows, cur.Profile(), nil
}

// addProfile adds the tuples the job's access operators produced and each
// operator kind's self time. Stages of a fused chain report the chain's
// wall time, which is split evenly among them.
func (t *tracer) addProfile(p *hyracks.JobProfile) {
	if p == nil {
		return
	}
	stages := map[[2]int]int{}
	for _, o := range p.Operators {
		stages[[2]int{o.Op, o.Partition}]++
	}
	for _, o := range p.Operators {
		kind := opKind(o.Name)
		if kind == "access" {
			t.scanned += o.TuplesOut
		}
		t.opSelf[kind] += time.Duration(o.WallNanos) / time.Duration(stages[[2]int{o.Op, o.Partition}])
	}
}

// probeStorage times one primary-key lookup and one author-id index search
// on the main instance, at seeded keys.
func (t *tracer) probeStorage() {
	msgs, _ := t.main.Dataset("MugshotMessages")
	t.req++
	root := t.rec.begin(t.req, 0, "probe")
	id := int32(1 + t.rng.Intn(len(t.d.msgs)))
	sp := t.rec.begin(t.req, root, "storage.lookup_pk")
	rec, found, err := msgs.LookupPK(adm.Int32(id))
	t.rec.end(sp)
	if err != nil || !found || intField(rec, "message-id") != id {
		t.fail("LookupPK(%d): found=%v err=%v", id, found, err)
	}
	author := int32(1 + t.rng.Intn(len(t.d.users)))
	sp = t.rec.begin(t.req, root, "storage.index_search")
	recs, err := msgs.SearchSecondaryRange("msAuthorIdx", adm.Int32(author), adm.Int32(author))
	t.rec.end(sp)
	if err != nil || len(recs) < len(t.d.byAuthor[author]) {
		t.fail("SearchSecondaryRange(author %d): %d records, err %v", author, len(recs), err)
	}
	t.rec.end(root)
}

// insert runs one insert through the decomposed layer calls into the main
// instance, then stores the same record into the journaled twin, counting
// the twin's write calls and bytes.
func (t *tracer) insert(stmt string) error {
	t.inserts++
	t.req++
	var recs []*adm.Record
	var err error
	t.measured(func() { recs, err = t.decomposedInsert(stmt) })
	if err != nil {
		return err
	}
	t.req++
	io0 := readProcIO()
	root := t.rec.begin(t.req, 0, "twin")
	err = t.store(t.twin, "storage.insert", t.req, root, recs)
	t.rec.end(root)
	d := readProcIO().sub(io0)
	t.journaledIO.syscw += d.syscw
	t.journaledIO.wchar += d.wchar
	return err
}

// decomposedInsert runs Parse → Eval of the insert body → InsertBatch, one
// span per layer, and returns the stored records.
func (t *tracer) decomposedInsert(stmt string) ([]*adm.Record, error) {
	rec, req := t.rec, t.req
	root := rec.begin(req, 0, "insert")
	defer rec.end(root)

	sp := rec.begin(req, root, "aql.parse")
	stmts, err := aql.Parse(stmt)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	ins, ok := stmts[0].(*aql.InsertStatement)
	if len(stmts) != 1 || !ok {
		return nil, fmt.Errorf("not a single insert: %q", stmt)
	}

	sp = rec.begin(req, root, "expr.eval")
	v, err := expr.Eval(t.main.EvalContext(), expr.Env{}, ins.Body)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("insert body: %w", err)
	}
	r, ok := v.(*adm.Record)
	if !ok {
		return nil, fmt.Errorf("insert body is %T, not a record", v)
	}
	recs := []*adm.Record{r}
	return recs, t.store(t.main, "storage.insert_nosync", req, root, recs)
}

// store inserts recs with InsertBatch under a span of the given name.
func (t *tracer) store(inst *asterixdb.Instance, name string, req, parent int, recs []*adm.Record) error {
	ds, _ := inst.Dataset("MugshotMessages")
	sp := t.rec.begin(req, parent, name)
	n, err := ds.InsertBatch(recs)
	t.rec.end(sp)
	if err == nil && n != len(recs) {
		err = fmt.Errorf("InsertBatch stored %d of %d records", n, len(recs))
	}
	return err
}

func runTraced(cfg config, def workloadDef, d *data, dir string) (*result, error) {
	fmt.Printf("traced replay of %s, seed %d: %d users, %d messages, %s window\n",
		def.name, cfg.seed, len(d.users), len(d.msgs), cfg.window)
	mainStore, twinStore := filepath.Join(dir, "main"), filepath.Join(dir, "twin")
	main, err := setup(mainStore, def.spec, d)
	if err != nil {
		return nil, err
	}
	twinSpec := def.spec
	twinSpec.journaled = true
	twin, err := setup(twinStore, twinSpec, d)
	if err != nil {
		main.Close()
		return nil, err
	}
	front, err := startHTTP(main, 1)
	if err != nil {
		main.Close()
		twin.Close()
		return nil, err
	}
	t := &tracer{
		rec: newRecorder(), main: main, twin: twin, front: front,
		jobOpts: translator.JobOptions{Partitions: partitions, MemoryBudget: main.MemoryBudget(), SpillDir: main.SpillDir()},
		rng:     rand.New(rand.NewSource(cfg.seed)), d: d, opSelf: map[string]time.Duration{},
	}
	a := newAcks(d)
	streams := def.newStreams(d, cfg.seed, def.clients, &insertSeq{limit: int(insertsPerSecond * cfg.window.Seconds())})
	stopDepth := sampleQueueDepth(main)
	rt0 := readRuntime()
	deadline := time.Now().Add(cfg.window)
	// The clients' streams are replayed round-robin, one request at a time.
	for i, live := 0, len(streams); live > 0 && time.Now().Before(deadline); i++ {
		s := streams[i%len(streams)]
		if s == nil {
			continue
		}
		r := s.next()
		switch {
		case r == nil:
			streams[i%len(streams)] = nil
			live--
		case r.isInsert():
			author, id := intField(r.insert, "author-id"), intField(r.insert, "message-id")
			a.markSent(author, id)
			if err := t.insert(r.stmt); err != nil {
				t.fail("insert %d: %v", id, err)
			} else {
				a.markAcked(author, id)
			}
		default:
			check := r.check
			if check == nil {
				check = a.readCheck(r.author)
			}
			t.query(r, check)
		}
	}
	if t.inserts == 0 {
		for k := 1; k <= probeInserts; k++ {
			rec := d.extraMessage(k)
			if err := t.insert(insertStmt(rec)); err != nil {
				t.fail("probe insert: %v", err)
			} else {
				a.markAcked(intField(rec, "author-id"), intField(rec, "message-id"))
			}
		}
	}
	rt1 := readRuntime()
	depthMax := stopDepth()
	msgs, _ := main.Dataset("MugshotMessages")
	lsmStats := msgs.Stats()
	if err := front.close(); err != nil {
		main.Close()
		twin.Close()
		return nil, err
	}
	if err := twin.Close(); err != nil {
		main.Close()
		return nil, err
	}
	dur, err := closeAndRecover(main, mainStore, def.spec, d, a.ackedIDs())
	if err != nil {
		return nil, err
	}
	if dur.err != nil {
		t.fail("durability: %v", dur.err)
	}
	spanFile := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", def.name, cfg.seed))
	if err := t.rec.writeFile(spanFile); err != nil {
		return nil, err
	}
	fmt.Printf("%d spans written to %s\n", len(t.rec.spans), spanFile)
	return t.report(rt0, rt1, depthMax, lsmStats, dur), nil
}

// sampleQueueDepth samples the background flush/merge queue depth until the
// returned stop function is called; stop returns the deepest queue seen.
func sampleQueueDepth(inst *asterixdb.Instance) (stop func() int) {
	quit := make(chan struct{})
	done := make(chan int)
	go func() {
		depth := 0
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				done <- depth
				return
			case <-tick.C:
				depth = max(depth, inst.Store().Stats().BgQueueDepth)
			}
		}
	}()
	return func() int {
		close(quit)
		return <-done
	}
}

func (t *tracer) report(rt0, rt1 runtimeSample, depthMax int, lsm storage.DatasetStats, dur *durability) *result {
	res := &result{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Printf("%-32s = %14.4f %s\n", name, v, unit)
	}
	spans := t.rec.spans
	q, ops := float64(max(t.queries, 1)), float64(max(t.queries+t.inserts, 1))
	insertUS, nosyncUS := meanDurUS(spans, "storage.insert"), meanDurUS(spans, "storage.insert_nosync")
	put("server.overhead_us", median(t.serverOverhead), "us")
	put("aql.parse_us", meanDurUS(spans, "aql.parse"), "us")
	put("translator.compile_us", meanDurUS(spans, "translator.compile"), "us")
	put("translator.build_us", meanDurUS(spans, "translator.build"), "us")
	put("hyracks.first_row_us", meanDurUS(spans, "hyracks.first_row"), "us")
	put("hyracks.exec_us", meanDurUS(spans, "hyracks.exec"), "us")
	put("hyracks.scanned_per_result", float64(t.scanned)/float64(max(t.results, 1)), "count")
	put("hyracks.ns_per_scanned_tuple", float64(t.execTotal)/float64(max(t.scanned, 1)), "ns")
	for _, k := range reportedOpKinds {
		put("hyracks.op_self_us."+k, float64(t.opSelf[k])/q/1e3, "us")
	}
	put("expr.eval_us", meanDurUS(spans, "expr.eval"), "us")
	put("adm.json_us", meanDurUS(spans, "adm.json"), "us")
	put("storage.insert_us", insertUS, "us")
	put("storage.insert_nosync_us", nosyncUS, "us")
	put("txn.force_us", insertUS-nosyncUS, "us")
	put("storage.lookup_pk_us", meanDurUS(spans, "storage.lookup_pk"), "us")
	put("storage.index_search_us", meanDurUS(spans, "storage.index_search"), "us")
	put("storage.bg_queue_depth_max", float64(depthMax), "count")
	put("lsm.components", float64(lsm.Components), "count")
	put("lsm.secondary_components", float64(lsm.SecondaryComponents), "count")
	put("lsm.flushes", float64(lsm.Flushes), "count")
	put("lsm.merges", float64(lsm.Merges), "count")
	ji := float64(max(t.inserts, 1))
	put("io.write_calls_per_insert", float64(t.journaledIO.syscw)/ji, "count")
	put("io.write_bytes_per_insert", float64(t.journaledIO.wchar)/ji, "B")
	put("io.read_calls_per_query", float64(t.readCalls)/q, "count")
	put("runtime.alloc_bytes_per_op", float64(t.allocBytes)/ops, "B")
	gcFrac := 0.0
	if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
		gcFrac = (rt1.gcCPU - rt0.gcCPU) / cpu
	}
	put("runtime.gc_cpu_fraction", gcFrac, "ratio")
	put("runtime.cpu_ms_per_op", float64(t.cpu)/ops/1e6, "ms")
	var unaccounted time.Duration
	requests := 0
	splits := map[string]map[string]*layerTime{}
	for _, root := range []string{"query", "insert"} {
		splits[root] = splitTimes(spans, root)
		if lt := splits[root][root]; lt != nil {
			unaccounted += lt.self
			requests += lt.n
		}
	}
	put("trace.unaccounted_us", float64(unaccounted)/float64(max(requests, 1))/1e3, "us")
	overhead := 0.0
	if t.inprocTotal > 0 {
		overhead = 100 * float64(t.tracedTotal-t.inprocTotal) / float64(t.inprocTotal)
	}
	put("trace.overhead_pct", overhead, "%")

	for _, root := range []string{"query", "insert"} {
		printSplit(os.Stdout, splits[root], root)
	}
	fmt.Println("operator self time per query, by kind:")
	for _, k := range sortedKeys(t.opSelf) {
		fmt.Printf("  %-20s %10.1f us\n", k, float64(t.opSelf[k])/q/1e3)
	}
	fmt.Printf("%d queries, %d inserts, %d acknowledged; durability check: %s\n",
		t.queries, t.inserts, dur.acked, okText(dur.err))
	for _, f := range t.failures {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}
	res.Attempted = t.queries + t.inserts + 1
	res.Failed = t.failed
	res.Correct = t.failed == 0
	fmt.Printf("error_ratio = %.6f (%d failed of %d attempted)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return res
}
