// Command perfbench is the repository's benchmark: kona-kvd get/set
// latency and throughput over a full rack on loopback TCP, plus a traced
// run that splits the time by layer from outside the program.
//
// Run it from the repository root (the script builds from source first):
//
//	bash perfbench/run.sh --workload kv-read-spill --seed 1 --seconds 10 --trace 0
//
// The last line of output is one JSON object: correct, attempted, failed
// and the metrics BENCHMARK.json declares, each with its unit. With
// --trace 0 they are the end-to-end metrics; with --trace 1 the
// per-layer ones. The lines before it are for people: per-rack phase
// times, sample counts, set-up times, gate failures.
//
// # The rack
//
// One process holds a controller, two memory nodes and a kvd Server on a
// Store over a TCP-attached Kona runtime, with kona-kvd's defaults (see
// rack.go and workload.go). The load comes from the same process:
// conns closed-loop clients (see load.go for why closed).
//
// # One end-to-end run (--trace 0)
//
// Three racks in turn (measuredRacks), each with its own seed derived
// from --seed: set-up (rack start plus a pipelined preload of every key,
// timed as setup_s), an untimed warm-up so FMem holds the hot set, a
// timed window of a third of --seconds, then the gates. It prints
// ops_per_s, get and set latency at p50 and p99.9, setup_s (median of the
// set-ups) and kvd_heap_mb (median over the racks of the live heap the
// kvd side holds; see closeMeasuringHeap in run.go). Latencies are per-op wall-clock times taken
// by the client; percentiles are exact, nearest-rank over the pooled raw
// samples, and a percentile with fewer than 10 samples beyond it fails
// the run rather than print a guess. The client's p99 is reported by the
// traced run instead, and p99.9 sits on a ~4ms scheduler-tick plateau
// (see layers.go for both).
//
// Every rack passes two gates, or the run reports correct=false:
//   - verify: every key ever acknowledged (preload and timed sets) is
//     re-read and must hold an intact value (kv.ParseValue) no older than
//     its last acknowledged write; gets in the window check the same
//     sequence number rule on the value header;
//   - remote traffic: kv-read-spill must fetch pages from the memory
//     nodes during the window, and kv-write-r2 must ship WriteLog RPCs to
//     both memory nodes, so a workload that quietly stops using the layer
//     it exists for fails loudly.
//
// # One traced run (--trace 1)
//
// A plain rack measures ops_per_s as above; a second rack, with every
// telemetry registry on and the span wrappers in place (trace.go),
// measures the same window again. The per-layer metrics and the map of
// which end-to-end metric each should move, on which workload, are in
// layers.go. The spans are written to <build dir>/trace/<workload>.spans.tsv.
//
// # Tests
//
//	cd perfbench && go test ./...
//
// checks the percentile function against known distributions, the span
// linking, a tiny-size run of every workload printing exactly the
// metrics BENCHMARK.json names, and that a corrupt write planted in a
// real run makes it print correct=false through the verify gate.
package main
