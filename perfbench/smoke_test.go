package main

import (
	"testing"
	"time"
)

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// requires every answer to be right and the durability check to pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds")
	}
	for _, name := range sortedKeys(workloads) {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: name, seed: 3, window: 500 * time.Millisecond, trace: traced,
				dir: t.TempDir(), users: 40, messages: 400,
			}
			res, err := run(cfg, workloads[name])
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s traced=%v: correct=%v, %d failed of %d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
		}
	}
}
