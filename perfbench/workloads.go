package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"asterixdb/internal/adm"
)

// A workload is one traffic mix: its instance, its client count and the
// seeded request stream each client sends, closed-loop.
type workloadDef struct {
	name    string
	clients int
	spec    instanceSpec
	// inserts marks a workload whose streams insert; after its window the
	// rest of the seeded insert stream is inserted, unmeasured.
	inserts bool
	// newStreams returns each client's request source; inserts is the
	// seeded insert stream the clients share.
	newStreams func(d *data, seed int64, clients int, inserts *insertSeq) []stream
}

var workloads = map[string]workloadDef{
	"serve-lookup": {
		name: "serve-lookup", clients: 2, spec: instanceSpec{},
		newStreams: func(d *data, seed int64, clients int, _ *insertSeq) []stream {
			return perClient(clients, func(c int) stream { return newServeStream(d, seed, c) })
		},
	},
	"analytic-scan": {
		name: "analytic-scan", clients: 1, spec: instanceSpec{ngram: true},
		newStreams: func(d *data, seed int64, clients int, _ *insertSeq) []stream {
			return perClient(clients, func(c int) stream { return newAnalyticStream(d, clientRand(seed, c)) })
		},
	},
	"ingest-mixed": {
		name: "ingest-mixed", clients: 2, spec: instanceSpec{}, inserts: true,
		newStreams: func(d *data, seed int64, clients int, inserts *insertSeq) []stream {
			return perClient(clients, func(c int) stream { return newIngestStream(d, clientRand(seed, c), inserts) })
		},
	},
}

// A request is one statement a client sends. Queries carry the check that
// validates their answer; inserts carry the record they store.
type request struct {
	kind   string
	stmt   string
	insert *adm.Record
	// author is the author-id an ingest-mixed read looks up; its check is
	// built when the request is sent, from the inserts acknowledged by then.
	author int32
	check  func(rows [][]byte) error
}

func (r *request) isInsert() bool { return r.insert != nil }

// A stream yields a client's next request, or nil when it has no more.
type stream interface {
	next() *request
}

func perClient(clients int, mk func(c int) stream) []stream {
	out := make([]stream, clients)
	for c := range out {
		out[c] = mk(c)
	}
	return out
}

// deck deals request kinds in exact proportions: each round of len(kinds)
// draws is a seeded shuffle of kinds, so two seeds differ in the order of
// the mix but never in its shares.
type deck struct {
	rng   *rand.Rand
	kinds []int
	next  int
}

func newDeck(rng *rand.Rand, shares ...int) *deck {
	d := &deck{rng: rng}
	for kind, n := range shares {
		for range n {
			d.kinds = append(d.kinds, kind)
		}
	}
	d.next = len(d.kinds)
	return d
}

func (d *deck) draw() int {
	if d.next == len(d.kinds) {
		d.rng.Shuffle(len(d.kinds), func(i, j int) { d.kinds[i], d.kinds[j] = d.kinds[j], d.kinds[i] })
		d.next = 0
	}
	d.next++
	return d.kinds[d.next-1]
}

func clientRand(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(c)*7919 + 1))
}

// ---------------------------------------------------------------------------
// serve-lookup
// ---------------------------------------------------------------------------

type serveStream struct {
	d    *data
	rng  *rand.Rand
	mix  *deck
	zipf *rand.Zipf
	// perm spreads the Zipf ranks over the key space, so the hot keys are
	// not simply the lowest message-ids.
	perm []int
}

func newServeStream(d *data, seed int64, c int) *serveStream {
	rng := clientRand(seed, c)
	return &serveStream{
		d:    d,
		rng:  rng,
		mix:  newDeck(rng, 6, 5, 4, 3, 2), // 30% 25% 20% 15% 10%
		zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(d.msgs)-1)),
		perm: rand.New(rand.NewSource(seed)).Perm(len(d.msgs)),
	}
}

func (s *serveStream) next() *request {
	switch s.mix.draw() {
	case 0:
		return pkRequest(s.d, int32(s.perm[s.zipf.Uint64()]+1))
	case 1:
		return authorRequest(s.d, int32(1+s.rng.Intn(len(s.d.users))))
	case 2:
		return windowRequest(s.d, s.rng, 20)
	case 3:
		return spatialRequest(s.d, s.rng)
	default:
		return oneUserJoinRequest(s.d, int32(1+s.rng.Intn(len(s.d.users))))
	}
}

func pkRequest(d *data, id int32) *request {
	want := d.msgs[id-1]
	return &request{
		kind: "pk",
		stmt: fmt.Sprintf(`for $m in dataset MugshotMessages where $m.message-id = %d return $m;`, id),
		check: func(rows [][]byte) error {
			return checkMessages(rows, []*adm.Record{want})
		},
	}
}

func authorRequest(d *data, author int32) *request {
	want := d.byAuthor[author]
	return &request{
		kind: "author",
		stmt: authorStmt(author),
		check: func(rows [][]byte) error {
			return checkIDs(rows, want)
		},
	}
}

func authorStmt(author int32) string {
	return fmt.Sprintf(`for $m in dataset MugshotMessages where $m.author-id = %d return $m.message-id;`, author)
}

// windowRequest selects the messages of a timestamp window holding n
// consecutive messages (message timestamps are evenly spaced).
func windowRequest(d *data, rng *rand.Rand, n int) *request {
	first := rng.Intn(len(d.msgs) - n + 1)
	want := d.msgs[first : first+n]
	lo := want[0].Get("timestamp").(adm.Datetime)
	hi := want[n-1].Get("timestamp").(adm.Datetime)
	return &request{
		kind: "window",
		stmt: fmt.Sprintf(`for $m in dataset MugshotMessages where $m.timestamp >= %s and $m.timestamp <= %s return $m;`, lo, hi),
		check: func(rows [][]byte) error {
			return checkMessages(rows, want)
		},
	}
}

// spatialRequest selects the messages sent from a random 1°×1° box.
func spatialRequest(d *data, rng *rand.Rand) *request {
	x0, y0 := 20+rng.Float64()*29, 70+rng.Float64()*29
	x1, y1 := x0+1, y0+1
	want := d.inBox(x0, y0, x1, y1)
	return &request{
		kind: "spatial",
		stmt: fmt.Sprintf(`for $m in dataset MugshotMessages where spatial-intersect($m.sender-location, create-rectangle(create-point(%s, %s), create-point(%s, %s))) return $m.message-id;`,
			fmtFloat(x0), fmtFloat(y0), fmtFloat(x1), fmtFloat(y1)),
		check: func(rows [][]byte) error {
			return checkIDs(rows, want)
		},
	}
}

func fmtFloat(f float64) string { return fmt.Sprintf("%.6f", f) }

func oneUserJoinRequest(d *data, user int32) *request {
	want := d.byAuthor[user]
	return &request{
		kind: "join",
		stmt: fmt.Sprintf(`for $u in dataset MugshotUsers for $m in dataset MugshotMessages where $m.author-id = $u.id and $u.id = %d return { "u": $u.id, "m": $m.message-id };`, user),
		check: func(rows [][]byte) error {
			pairs := make(map[int32]int32, len(want))
			for _, id := range want {
				pairs[id] = user
			}
			return checkPairs(rows, pairs)
		},
	}
}

// ---------------------------------------------------------------------------
// analytic-scan
// ---------------------------------------------------------------------------

// analyticWindow is the message count of the large timestamp windows (10%
// of the messages, the paper's large selectivity).
const analyticWindow = numMessages / 10

// containsWords are the probes of the ngram-indexed contains() query.
var containsWords = []string{"asterix", "spatial", "parallel", "feed"}

type analyticStream struct {
	d   *data
	rng *rand.Rand
	mix *deck
}

func newAnalyticStream(d *data, rng *rand.Rand) *analyticStream {
	return &analyticStream{d: d, rng: rng, mix: newDeck(rng, 1, 1, 1, 1, 1)}
}

func (s *analyticStream) next() *request {
	d, rng := s.d, s.rng
	n := min(analyticWindow, len(d.msgs))
	first := rng.Intn(len(d.msgs) - n + 1)
	win := d.msgs[first : first+n]
	lo, hi := win[0].Get("timestamp").(adm.Datetime), win[n-1].Get("timestamp").(adm.Datetime)
	switch s.mix.draw() {
	case 0:
		var sum float64
		for _, l := range d.msgLen[first : first+n] {
			sum += float64(l)
		}
		want := sum / float64(n)
		return &request{
			kind: "avg",
			stmt: fmt.Sprintf(`avg(for $m in dataset MugshotMessages where $m.timestamp >= %s and $m.timestamp <= %s return string-length($m.message));`, lo, hi),
			check: func(rows [][]byte) error {
				return checkFloat(rows, want)
			},
		}
	case 1:
		pairs := make(map[int32]int32, n)
		for _, m := range win {
			pairs[intField(m, "message-id")] = intField(m, "author-id")
		}
		return &request{
			kind: "hashjoin",
			stmt: fmt.Sprintf(`for $u in dataset MugshotUsers for $m in dataset MugshotMessages where $m.author-id = $u.id and $m.timestamp >= %s and $m.timestamp <= %s return { "u": $u.id, "m": $m.message-id };`, lo, hi),
			check: func(rows [][]byte) error {
				return checkPairs(rows, pairs)
			},
		}
	case 2:
		return &request{
			kind: "group",
			stmt: `for $m in dataset MugshotMessages group by $a := $m.author-id with $m return { "a": $a, "n": count($m) };`,
			check: func(rows [][]byte) error {
				return checkGroups(rows, d.byAuthor)
			},
		}
	case 3:
		minLen := 30 + rng.Intn(50)
		want := d.countLongerThan(minLen)
		return &request{
			kind: "count",
			stmt: fmt.Sprintf(`count(for $m in dataset MugshotMessages where string-length($m.message) > %d return $m);`, minLen),
			check: func(rows [][]byte) error {
				return checkInt(rows, want)
			},
		}
	default:
		word := containsWords[rng.Intn(len(containsWords))]
		want := d.wordCount[word]
		return &request{
			kind: "contains",
			stmt: fmt.Sprintf(`count(for $m in dataset MugshotMessages where contains($m.message, "%s") return $m);`, word),
			check: func(rows [][]byte) error {
				return checkInt(rows, want)
			},
		}
	}
}

// ---------------------------------------------------------------------------
// ingest-mixed
// ---------------------------------------------------------------------------

// insertSeq hands out positions of the seeded insert stream to the
// ingest-mixed clients, so the inserted records are fixed by the seed
// whatever the interleaving.
type insertSeq struct {
	mu           sync.Mutex
	taken, limit int
}

func (s *insertSeq) take() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.taken >= s.limit {
		return 0, false
	}
	s.taken++
	return s.taken, true
}

type ingestStream struct {
	rng     *rand.Rand
	mix     *deck
	d       *data
	inserts *insertSeq
}

func newIngestStream(d *data, rng *rand.Rand, inserts *insertSeq) *ingestStream {
	return &ingestStream{rng: rng, mix: newDeck(rng, 9, 1), d: d, inserts: inserts} // 90% inserts
}

func (s *ingestStream) next() *request {
	if s.mix.draw() == 1 {
		return authorReads{s.d, s.rng}.next()
	}
	k, ok := s.inserts.take()
	if !ok {
		return nil
	}
	rec := s.d.extraMessage(k)
	return &request{kind: "insert", stmt: insertStmt(rec), insert: rec}
}

// insertOnly sends the rest of the seeded insert stream; ingest-mixed uses
// it after the measured window, so every run ends at the same data size.
type insertOnly struct {
	d       *data
	inserts *insertSeq
}

func (s insertOnly) next() *request {
	k, ok := s.inserts.take()
	if !ok {
		return nil
	}
	rec := s.d.extraMessage(k)
	return &request{kind: "insert", stmt: insertStmt(rec), insert: rec}
}

// authorReads sends ingest-mixed's read kind only. It warms ingest-mixed up
// without inserting, so the window starts from the preloaded data.
type authorReads struct {
	d   *data
	rng *rand.Rand
}

func (s authorReads) next() *request {
	author := int32(1 + s.rng.Intn(len(s.d.users)))
	return &request{kind: "read", stmt: authorStmt(author), author: author}
}

func insertStmt(rec *adm.Record) string {
	return "insert into dataset MugshotMessages (" + rec.String() + ");"
}

// ---------------------------------------------------------------------------
// Answer checks. Rows are the NDJSON lines of a /query response.
// ---------------------------------------------------------------------------

// messageJSON is the wire form of a MugshotMessages record.
type messageJSON struct {
	MessageID      int32      `json:"message-id"`
	AuthorID       int32      `json:"author-id"`
	Timestamp      string     `json:"timestamp"`
	InResponseTo   *int32     `json:"in-response-to"`
	SenderLocation [2]float64 `json:"sender-location"`
	Tags           []string   `json:"tags"`
	Message        string     `json:"message"`
}

// expectMessage renders a generated record in the wire form.
func expectMessage(r *adm.Record) messageJSON {
	m := messageJSON{
		MessageID: intField(r, "message-id"),
		AuthorID:  intField(r, "author-id"),
		Timestamp: time.UnixMilli(int64(r.Get("timestamp").(adm.Datetime))).UTC().Format("2006-01-02T15:04:05.000"),
		Message:   string(r.Get("message").(adm.String)),
	}
	if v, ok := r.Get("in-response-to").(adm.Int32); ok {
		id := int32(v)
		m.InResponseTo = &id
	}
	p := r.Get("sender-location").(adm.Point)
	m.SenderLocation = [2]float64{p.X, p.Y}
	for _, t := range r.Get("tags").(*adm.UnorderedList).Items {
		m.Tags = append(m.Tags, string(t.(adm.String)))
	}
	sort.Strings(m.Tags)
	return m
}

func decodeStrict(row []byte, v any) error {
	dec := json.NewDecoder(strings.NewReader(string(row)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("row %.80s: %w", row, err)
	}
	return nil
}

// checkMessages requires the rows to be exactly the given records, in any
// order.
func checkMessages(rows [][]byte, want []*adm.Record) error {
	if len(rows) != len(want) {
		return fmt.Errorf("got %d records, want %d", len(rows), len(want))
	}
	byID := make(map[int32]*adm.Record, len(want))
	for _, r := range want {
		byID[intField(r, "message-id")] = r
	}
	for _, row := range rows {
		var got messageJSON
		if err := decodeStrict(row, &got); err != nil {
			return err
		}
		sort.Strings(got.Tags)
		r, ok := byID[got.MessageID]
		if !ok {
			return fmt.Errorf("unexpected message-id %d", got.MessageID)
		}
		delete(byID, got.MessageID)
		if exp := expectMessage(r); !messagesEqual(got, exp) {
			return fmt.Errorf("message %d: got %+v, want %+v", got.MessageID, got, exp)
		}
	}
	return nil
}

func messagesEqual(a, b messageJSON) bool {
	if (a.InResponseTo == nil) != (b.InResponseTo == nil) ||
		(a.InResponseTo != nil && *a.InResponseTo != *b.InResponseTo) {
		return false
	}
	return a.MessageID == b.MessageID && a.AuthorID == b.AuthorID && a.Timestamp == b.Timestamp &&
		a.SenderLocation == b.SenderLocation && a.Message == b.Message && slices.Equal(a.Tags, b.Tags)
}

func decodeIDs(rows [][]byte) ([]int32, error) {
	ids := make([]int32, len(rows))
	for i, row := range rows {
		if err := json.Unmarshal(row, &ids[i]); err != nil {
			return nil, fmt.Errorf("row %.80s: %w", row, err)
		}
	}
	slices.Sort(ids)
	return ids, nil
}

// checkIDs requires the rows to be exactly the given message-ids.
func checkIDs(rows [][]byte, want []int32) error {
	got, err := decodeIDs(rows)
	if err != nil {
		return err
	}
	if want = slices.Sorted(slices.Values(want)); !slices.Equal(got, want) {
		return fmt.Errorf("got %d ids %v, want %d ids %v", len(got), clip(got), len(want), clip(want))
	}
	return nil
}

// checkIDRange requires every id of must and no id outside may.
func checkIDRange(rows [][]byte, must []int32, may map[int32]bool) error {
	got, err := decodeIDs(rows)
	if err != nil {
		return err
	}
	seen := make(map[int32]bool, len(got))
	for _, id := range got {
		if seen[id] {
			return fmt.Errorf("message-id %d returned twice", id)
		}
		seen[id] = true
		if !may[id] {
			return fmt.Errorf("message-id %d was never written for this author", id)
		}
	}
	for _, id := range must {
		if !seen[id] {
			return fmt.Errorf("acknowledged message-id %d missing", id)
		}
	}
	return nil
}

func clip(ids []int32) []int32 {
	if len(ids) > 8 {
		return ids[:8]
	}
	return ids
}

// checkPairs requires rows {"u": author, "m": message} matching want, which
// maps message-id to author-id.
func checkPairs(rows [][]byte, want map[int32]int32) error {
	if len(rows) != len(want) {
		return fmt.Errorf("got %d join rows, want %d", len(rows), len(want))
	}
	seen := make(map[int32]bool, len(rows))
	for _, row := range rows {
		var got struct {
			U int32 `json:"u"`
			M int32 `json:"m"`
		}
		if err := decodeStrict(row, &got); err != nil {
			return err
		}
		if u, ok := want[got.M]; !ok || u != got.U || seen[got.M] {
			return fmt.Errorf("unexpected join row %s", row)
		}
		seen[got.M] = true
	}
	return nil
}

func checkGroups(rows [][]byte, byAuthor map[int32][]int32) error {
	if len(rows) != len(byAuthor) {
		return fmt.Errorf("got %d groups, want %d", len(rows), len(byAuthor))
	}
	for _, row := range rows {
		var got struct {
			A int32 `json:"a"`
			N int   `json:"n"`
		}
		if err := decodeStrict(row, &got); err != nil {
			return err
		}
		if got.N != len(byAuthor[got.A]) {
			return fmt.Errorf("group %d: count %d, want %d", got.A, got.N, len(byAuthor[got.A]))
		}
	}
	return nil
}

func singleRow(rows [][]byte) ([]byte, error) {
	if len(rows) != 1 {
		return nil, fmt.Errorf("got %d rows, want 1", len(rows))
	}
	return rows[0], nil
}

func checkInt(rows [][]byte, want int) error {
	row, err := singleRow(rows)
	if err != nil {
		return err
	}
	var got int
	if err := json.Unmarshal(row, &got); err != nil {
		return fmt.Errorf("row %.80s: %w", row, err)
	}
	if got != want {
		return fmt.Errorf("got %d, want %d", got, want)
	}
	return nil
}

func checkFloat(rows [][]byte, want float64) error {
	row, err := singleRow(rows)
	if err != nil {
		return err
	}
	var got float64
	if err := json.Unmarshal(row, &got); err != nil {
		return fmt.Errorf("row %.80s: %w", row, err)
	}
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		return fmt.Errorf("got %v, want %v", got, want)
	}
	return nil
}
