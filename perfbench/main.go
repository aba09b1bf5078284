// Command perfbench is the repository's end-to-end benchmark. It drives one
// of three closed-loop workloads (serve-lookup, analytic-scan, ingest-mixed)
// against an in-process instance served over loopback HTTP by
// internal/server, checks every answer against an oracle computed from the
// generated data, and prints each metric by name with its unit and sample
// count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it replays
// the same seeded request stream through each layer's public call chain and
// reports per-layer metrics instead. See README.md for the workloads and the
// metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-lookup --seed 1 --seconds 45 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"syscall"
	"time"
)

// config is the command line.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// dir is where the run keeps its data directories.
	dir string
	// users and messages scale the generated data; tests shrink them.
	users, messages int
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line that ends the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: serve-lookup, analytic-scan or ingest-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated data and request streams")
	flag.IntVar(&seconds, "seconds", 30, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "directory for the run's data directories")
	flag.Parse()
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.users, cfg.messages = numUsers, numMessages

	def, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(cfg, def)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run in a fresh directory under cfg.dir, which
// it removes afterwards.
func run(cfg config, def workloadDef) (*result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dir, "run-"+def.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	d := newData(cfg.seed, cfg.users, cfg.messages)
	// Dirty pages a previous run left behind would otherwise be written back
	// during this run's fsyncs.
	syscall.Sync()
	if cfg.trace {
		return runTraced(cfg, def, d, dir)
	}
	return runEndToEnd(cfg, def, d, dir)
}
