package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kona"
	"kona/internal/kv"
)

// spec is the part of BENCHMARK.json the output must match.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny shrinks a workload's keyspace so a smoke run sets up in well under
// a second.
func tiny(w workload) workload {
	w.keys = min(w.keys, 2_000)
	return w
}

func TestSpecNamesEveryWorkload(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the benchmark runs %d workloads", names, len(workloads))
	}
}

// TestSmokeEveryMetricPrints runs each workload at tiny size, plain and
// traced, and checks the printed JSON holds exactly the metrics
// BENCHMARK.json declares, each with its unit, and passes every gate.
func TestSmokeEveryMetricPrints(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("smoke runs need full speed to collect p99.9 samples")
	}
	s := loadSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			res, err := run(runConfig{
				w: tiny(w), seed: 7, window: 6 * time.Second, trace: traced,
				warmOps: 2_000,
				spans:   filepath.Join(t.TempDir(), "spans.tsv"),
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			line, err := resultJSON(res)
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct           bool
				Attempted, Failed uint64
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatalf("%s: output %q: %v", w.name, line, err)
			}
			if !out.Correct || out.Attempted == 0 || out.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, traced, out.Correct, out.Attempted, out.Failed, strings.Join(res.notes, "\n"))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q != %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json declares %d", w.name, traced, len(out.Metrics), len(want))
			}
		}
	}
}

// corruptKey is a kv.Runtime that flips the last byte of every record
// written for one key, the way a torn writeback would. The key is the
// coldest of the tiny keyspace, so in practice only its preload Write is
// corrupted; corrupting its later sets too keeps a set in the window
// from quietly repairing the fault.
type corruptKey struct {
	kv.Runtime
	key    []byte
	writes atomic.Int64
}

func (c *corruptKey) Write(now kona.Time, addr kona.Addr, buf []byte) (kona.Time, error) {
	if bytes.Contains(buf, c.key) {
		c.writes.Add(1)
		buf[len(buf)-1] ^= 0xff
	}
	return c.Runtime.Write(now, addr, buf)
}

// TestPlantedCorruptionFailsTheRun plants the fault in the first rack of
// a real end-to-end run and checks the printed result says correct=false
// because the verify pass found exactly that key.
func TestPlantedCorruptionFailsTheRun(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a full run needs full speed to collect p99.9 samples")
	}
	w := tiny(workloads[1])
	fault := &corruptKey{key: []byte(fmt.Sprintf("user:%d", w.keys-1))}
	var racks atomic.Int64
	res, err := run(runConfig{
		w: w, seed: 3, window: 6 * time.Second, warmOps: 2_000,
		wrap: func(rt kv.Runtime) kv.Runtime {
			if racks.Add(1) > 1 {
				return rt
			}
			fault.Runtime = rt
			return fault
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fault.writes.Load() == 0 {
		t.Fatal("the planted fault never fired")
	}
	line, err := resultJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ Correct bool }
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	notes := strings.Join(res.notes, "\n")
	if out.Correct {
		t.Fatalf("run passed over a corrupted write: %s\n%s", line, notes)
	}
	if !strings.Contains(notes, "1 missing/torn/stale") {
		t.Errorf("verify should report exactly the one corrupted key:\n%s", notes)
	}
}
