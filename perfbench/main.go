package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: kv-read-spill, kv-read-resident or kv-write-r2")
		seed    = flag.Int64("seed", 1, "workload seed: preload sizes and the op stream derive from it")
		seconds = flag.Float64("seconds", 10, "length of the timed window")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		out     = flag.String("out", ".bench_build", "directory for the traced run's span file")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := runConfig{
		w:       w,
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		warmOps: 20_000,
		spans:   filepath.Join(*out, "trace", w.name+".spans.tsv"),
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, m := range res.metrics {
		fmt.Printf("%-40s %14.4f %s\n", m.name, m.value, m.unit)
	}
	line, err := resultJSON(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// resultJSON renders the last line of output: correctness, op counts and
// every metric with its unit.
func resultJSON(res *result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	return string(b), err
}
