package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
	"unicode/utf8"

	"asterixdb"
	"asterixdb/internal/adm"
	"asterixdb/internal/workload"
)

// Data sizes shared by every workload: 2,000 users and 20,000 messages,
// hashed over 4 partitions.
const (
	numUsers    = 2000
	numMessages = 20000
	partitions  = 4
)

// ddlTypes declares the Mugshot types and datasets; servingIndexes and
// ngramIndex declare the indexes.
const ddlTypes = `
create type EmploymentType as open { organization-name: string, start-date: date, end-date: date? }
create type MugshotUserType as {
  id: int32, alias: string, name: string, user-since: datetime,
  address: { street: string, city: string, state: string, zip: string, country: string },
  friend-ids: {{ int32 }}, employment: [EmploymentType]
}
create type MugshotMessageType as closed {
  message-id: int32, author-id: int32, timestamp: datetime, in-response-to: int32?,
  sender-location: point?, tags: {{ string }}, message: string
}
create dataset MugshotUsers(MugshotUserType) primary key id;
create dataset MugshotMessages(MugshotMessageType) primary key message-id;
`

// servingIndexes is the index set of serve-lookup and ingest-mixed: B+-trees
// on timestamp and author-id and an R-tree on sender-location.
const servingIndexes = `
create index msTimestampIdx on MugshotMessages(timestamp);
create index msAuthorIdx on MugshotMessages(author-id);
create index msSenderLocIdx on MugshotMessages(sender-location) type rtree;
`

// ngramIndex completes the paper's four message indexes for analytic-scan.
const ngramIndex = `
create index msMessageNgIdx on MugshotMessages(message) type ngram(3);
`

// instanceSpec is the storage configuration of one workload's instance.
type instanceSpec struct {
	journaled bool
	ngram     bool
}

func (s instanceSpec) ddl() string {
	if s.ngram {
		return ddlTypes + servingIndexes + ngramIndex
	}
	return ddlTypes + servingIndexes
}

// data is the generated dataset plus the lookup tables the answer oracle
// computes expected results from. Nothing in it comes from the engine.
type data struct {
	gen   *workload.Generator
	users []*adm.Record
	msgs  []*adm.Record // msgs[i] has message-id i+1
	// byAuthor maps an author-id to the preloaded message-ids, ascending.
	byAuthor map[int32][]int32
	// textBytes is the ADM text size of every preloaded record.
	textBytes int64
	// msgLen is each message's string-length; sortedLen holds the same
	// values ascending.
	msgLen, sortedLen []int
	// wordCount counts the messages containing each containsWords entry.
	wordCount map[string]int
	// cells buckets message indexes by the 1°×1° cell of their location.
	cells map[[2]int][]int
}

func newData(seed int64, users, messages int) *data {
	gen := workload.New(workload.Config{Users: users, Messages: messages, Seed: seed})
	d := &data{gen: gen, users: gen.Users(), msgs: gen.Messages(), byAuthor: map[int32][]int32{}}
	for _, u := range d.users {
		d.textBytes += int64(len(u.String()))
	}
	d.wordCount = map[string]int{}
	d.cells = map[[2]int][]int{}
	for i, m := range d.msgs {
		d.textBytes += int64(len(m.String()))
		a := intField(m, "author-id")
		d.byAuthor[a] = append(d.byAuthor[a], intField(m, "message-id"))
		text := string(m.Get("message").(adm.String))
		d.msgLen = append(d.msgLen, utf8.RuneCountInString(text))
		for _, w := range containsWords {
			if strings.Contains(text, w) {
				d.wordCount[w]++
			}
		}
		p := m.Get("sender-location").(adm.Point)
		c := cellOf(p.X, p.Y)
		d.cells[c] = append(d.cells[c], i)
	}
	d.sortedLen = slices.Sorted(slices.Values(d.msgLen))
	return d
}

func cellOf(x, y float64) [2]int { return [2]int{int(math.Floor(x)), int(math.Floor(y))} }

// countLongerThan counts the messages whose string-length exceeds n.
func (d *data) countLongerThan(n int) int {
	i, _ := slices.BinarySearch(d.sortedLen, n+1)
	return len(d.sortedLen) - i
}

// inBox returns the message-ids located inside [x0,x1]×[y0,y1].
func (d *data) inBox(x0, y0, x1, y1 float64) []int32 {
	var out []int32
	lo, hi := cellOf(x0, y0), cellOf(x1, y1)
	for cx := lo[0]; cx <= hi[0]; cx++ {
		for cy := lo[1]; cy <= hi[1]; cy++ {
			for _, i := range d.cells[[2]int{cx, cy}] {
				p := d.msgs[i].Get("sender-location").(adm.Point)
				if p.X >= x0 && p.X <= x1 && p.Y >= y0 && p.Y <= y1 {
					out = append(out, int32(i+1))
				}
			}
		}
	}
	return out
}

// extraMessage returns the k-th message (k from 1) of the seeded insert
// stream; its message-id follows the preloaded ones.
func (d *data) extraMessage(k int) *adm.Record {
	return d.gen.Message(len(d.msgs) + k)
}

func intField(r *adm.Record, name string) int32 {
	return int32(r.Get(name).(adm.Int32))
}

// openInstance opens (or reopens) an instance and runs the DDL.
func openInstance(dir string, spec instanceSpec) (*asterixdb.Instance, error) {
	inst, err := asterixdb.Open(asterixdb.Config{DataDir: dir, Partitions: partitions, Journaled: spec.journaled})
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	if _, err := inst.Execute(spec.ddl()); err != nil {
		inst.Close()
		return nil, fmt.Errorf("ddl: %w", err)
	}
	return inst, nil
}

// loadBatch is the number of records one InsertBatch call loads.
const loadBatch = 1000

// setup creates a fresh instance in dir, loads the generated data and waits
// until the background flush/merge scheduler is idle, so the measured window
// starts from a settled store.
func setup(dir string, spec instanceSpec, d *data) (*asterixdb.Instance, error) {
	inst, err := openInstance(dir, spec)
	if err != nil {
		return nil, err
	}
	for _, ds := range []struct {
		name string
		recs []*adm.Record
	}{{"MugshotUsers", d.users}, {"MugshotMessages", d.msgs}} {
		target, _ := inst.Dataset(ds.name)
		for lo := 0; lo < len(ds.recs); lo += loadBatch {
			hi := min(lo+loadBatch, len(ds.recs))
			if _, err := target.InsertBatch(ds.recs[lo:hi]); err != nil {
				inst.Close()
				return nil, fmt.Errorf("load %s: %w", ds.name, err)
			}
		}
	}
	waitIdle(inst)
	return inst, nil
}

// waitIdle blocks until no background flush or merge is queued or running.
func waitIdle(inst *asterixdb.Instance) {
	for {
		s := inst.Store().Stats()
		if s.BgQueueDepth == 0 && s.BgInFlight == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
