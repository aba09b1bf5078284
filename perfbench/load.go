package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"asterixdb"
	"asterixdb/internal/server"
)

// httpFront serves an instance over loopback HTTP through internal/server,
// as asterixd does, and holds the client the load generator sends with.
type httpFront struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	done   chan error
}

// startHTTP serves inst on a loopback port. The client keeps at most conns
// connections open.
func startHTTP(inst *asterixdb.Instance, conns int) (*httpFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(inst, server.Options{})
	f := &httpFront{
		srv:  srv,
		hs:   &http.Server{Handler: srv},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		done: make(chan error, 1),
	}
	go func() { f.done <- f.hs.Serve(ln) }()
	return f, nil
}

// close stops the listener and waits for the serving goroutine.
func (f *httpFront) close() error {
	f.client.CloseIdleConnections()
	err := f.hs.Shutdown(context.Background())
	if serveErr := <-f.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	f.srv.Close()
	return err
}

// post sends one statement and returns the response body split into lines.
func (f *httpFront) post(path, stmt string) ([][]byte, error) {
	resp, err := f.client.Post(f.base+path, "text/plain", strings.NewReader(stmt))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	var rows [][]byte
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		if bytes.HasPrefix(line, []byte(`{"error":`)) {
			return nil, fmt.Errorf("%s: %s", path, line)
		}
		rows = append(rows, line)
	}
	return rows, nil
}

// query sends a /query request and returns the result rows.
func (f *httpFront) query(stmt string) ([][]byte, error) { return f.post("/query", stmt) }

// update sends an /update request and checks that it stored want records.
func (f *httpFront) update(stmt string, want int) error {
	rows, err := f.post("/update", stmt)
	if err != nil {
		return err
	}
	var ack struct {
		Status string `json:"status"`
		Count  int    `json:"count"`
	}
	if len(rows) != 1 || json.Unmarshal(rows[0], &ack) != nil || ack.Status != "success" || ack.Count != want {
		return fmt.Errorf("/update: unexpected acknowledgement %q", bytes.Join(rows, nil))
	}
	return nil
}

// acks tracks, per author, the message-ids whose inserts were sent and those
// acknowledged, so an ingest-mixed read can be checked against exactly the
// writes that must (or may) be visible to it.
type acks struct {
	d     *data
	mu    sync.Mutex
	sent  map[int32][]int32
	acked map[int32][]int32
	all   []int32
}

func newAcks(d *data) *acks {
	return &acks{d: d, sent: map[int32][]int32{}, acked: map[int32][]int32{}}
}

func (a *acks) markSent(author, id int32) {
	a.mu.Lock()
	a.sent[author] = append(a.sent[author], id)
	a.mu.Unlock()
}

func (a *acks) markAcked(author, id int32) {
	a.mu.Lock()
	a.acked[author] = append(a.acked[author], id)
	a.all = append(a.all, id)
	a.mu.Unlock()
}

func (a *acks) ackedIDs() []int32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]int32(nil), a.all...)
}

// readCheck returns the check of an author lookup sent now: it must return
// every preloaded and acknowledged message of the author, and nothing that
// was not at least sent by the time the answer arrived.
func (a *acks) readCheck(author int32) func(rows [][]byte) error {
	a.mu.Lock()
	must := append(append([]int32(nil), a.d.byAuthor[author]...), a.acked[author]...)
	a.mu.Unlock()
	return func(rows [][]byte) error {
		a.mu.Lock()
		may := make(map[int32]bool, len(must))
		for _, id := range a.d.byAuthor[author] {
			may[id] = true
		}
		for _, id := range a.sent[author] {
			may[id] = true
		}
		a.mu.Unlock()
		return checkIDRange(rows, must, may)
	}
}

// outcome is what one closed-loop run observed.
type outcome struct {
	elapsed time.Duration
	queries latencies
	inserts latencies
	byKind  map[string]*latencies
	// queryKinds names the kinds in byKind that are queries.
	queryKinds map[string]bool
	attempts   int
	failed     int
	// failures holds the first maxFailureNotes failure messages.
	failures []string
}

func (o *outcome) record(kind string, insert bool, d, at time.Duration) {
	if insert {
		o.inserts.add(at, d)
	} else {
		o.queries.add(at, d)
		o.queryKinds[kind] = true
	}
	l := o.byKind[kind]
	if l == nil {
		l = &latencies{}
		o.byKind[kind] = l
	}
	l.add(at, d)
}

// kindP50Geomean returns the geometric mean over the query kinds of each
// kind's median latency, and the number of kinds. Each kind's median sits in
// the middle of that kind's latencies, where a mix's median can fall in the
// gap between a fast kind's tail and a slow kind's head and jump between them
// with small shifts of either.
func (o *outcome) kindP50Geomean() (float64, int) {
	var p50s []float64
	for _, k := range sortedKeys(o.queryKinds) {
		p50s = append(p50s, percentile(o.byKind[k].sorted(), 50))
	}
	return geomean(p50s), len(p50s)
}

// maxFailureNotes bounds the failure messages an outcome keeps.
const maxFailureNotes = 20

func (o *outcome) fail(msg string) {
	o.failed++
	if len(o.failures) < maxFailureNotes {
		o.failures = append(o.failures, msg)
	}
}

// runClosedLoop drives one client goroutine per stream against the front
// until the streams run dry or the window closes. Each client sends its next
// request only after the previous answer arrived and was checked.
func runClosedLoop(f *httpFront, streams []stream, window time.Duration, a *acks) *outcome {
	out := &outcome{byKind: map[string]*latencies{}, queryKinds: map[string]bool{}}
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for _, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := s.next()
				if r == nil {
					return
				}
				d, err := send(f, r, a)
				mu.Lock()
				out.attempts++
				if err != nil {
					out.fail(fmt.Sprintf("%s: %v", r.kind, err))
				} else {
					out.record(r.kind, r.isInsert(), d, time.Since(start))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// send issues one request and checks its answer; the latency covers the
// round trip up to the last response byte, not the check.
func send(f *httpFront, r *request, a *acks) (time.Duration, error) {
	if r.isInsert() {
		author, id := intField(r.insert, "author-id"), intField(r.insert, "message-id")
		a.markSent(author, id)
		start := time.Now()
		err := f.update(r.stmt, 1)
		d := time.Since(start)
		if err == nil {
			a.markAcked(author, id)
		}
		return d, err
	}
	check := r.check
	if check == nil {
		check = a.readCheck(r.author)
	}
	start := time.Now()
	rows, err := f.query(r.stmt)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	if err := check(rows); err != nil {
		return d, fmt.Errorf("wrong answer to %q: %w", r.stmt, err)
	}
	return d, nil
}
