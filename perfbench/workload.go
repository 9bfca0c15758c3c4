package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"time"

	"kona/internal/kv"
)

// The rack every workload runs on uses kona-kvd's production defaults
// (cmd/kona-kvd flag defaults): a 16MB FMem cache, 16 store shards and a
// background RunSyncLoop every 100ms. Sync drains the cache-line log and
// also calls FlushAll, which drops every FMem frame, so the 100ms flush
// policy shapes every workload's hit ratio, not only its writes.
const (
	fmemBytes    = 16 << 20
	storeShards  = 16
	syncInterval = 100 * time.Millisecond
	memNodes     = 2
	zipfS        = 1.1
	// conns is the closed loop's client count, one per CPU of the 2-CPU
	// VM the benchmark was tuned on.
	conns = 2
)

// workload is one traffic mix. Keys are "user:<i>" for i in [0, keys);
// every key is preloaded once before the run, so no get misses.
type workload struct {
	name     string
	keys     uint64
	readFrac float64
	replicas int
	// nodeCapacity is each memory node's pool, sized to the workload's
	// footprint with headroom: the pools are allocated (and zeroed) on
	// every rack start, so oversizing them inflates setup_s and RSS.
	nodeCapacity uint64
	// remote is the layer check that fails the run if the workload
	// stopped exercising the path it exists for.
	remote remoteCheck
}

type remoteCheck int

const (
	needFetches  remoteCheck = iota // the window fetched pages from the memnodes
	needWriteLog                    // every memnode received WriteLog RPCs
	noCheck                         // a resident keyspace need not go remote
)

// workloads is the benchmark's traffic. Sizes are relative to FMem; the
// default value mix (kv.DefaultValueSizes) averages ~800 value bytes and
// ~1600 heap-block bytes per key.
//
//   - kv-read-spill: 90% gets, R=1, 100k keys = ~80MB of values, 5x FMem.
//     The zipf-1.1 hot set still fits FMem, so the median get hits, but
//     about 0.6 remote fetches per get (misses, and refetches after each
//     sync's FlushAll) put the fetch path (fpga miss -> cluster ReadPages
//     -> memnode serve) into throughput and the tail.
//   - kv-read-resident: the same mix over 2k keys = ~1.6MB of values,
//     ~3.2MB of blocks, under 1/4 of FMem. The kv protocol, server, store
//     and CPU costs come first and the fetch path is barely touched,
//     except for the refetches each 100ms Sync (FlushAll) forces.
//   - kv-write-r2: 20% gets, 80% sets, R=2, the kv-read-spill keyspace.
//     Dirty tracking, log packing, the two-way ship fan-out and memnode
//     WriteLog serving carry the time; reads stay light. It shares the
//     core and cluster layers with kv-read-spill from the write side, so
//     a fetch-side gain that costs eviction shows here.
var workloads = []workload{
	{name: "kv-read-spill", keys: 100_000, readFrac: 0.9, replicas: 1, nodeCapacity: 128 << 20, remote: needFetches},
	{name: "kv-read-resident", keys: 2_000, readFrac: 0.9, replicas: 1, nodeCapacity: 32 << 20, remote: noCheck},
	{name: "kv-write-r2", keys: 100_000, readFrac: 0.2, replicas: 2, nodeCapacity: 224 << 20, remote: needWriteLog},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// generator returns the op stream for seed. Every client builds its own
// copy and keeps the ops whose key it owns (connOf), so the clients
// together replay exactly one generator's stream and per-key sequence
// numbers stay monotonic.
func (w workload) generator(seed int64) (*kv.Generator, error) {
	return kv.NewGenerator(kv.WorkloadConfig{
		Keys:         w.keys,
		ZipfS:        zipfS,
		ReadFraction: w.readFrac,
		ValueSizes:   kv.DefaultValueSizes(),
		RatePerSec:   1, // arrival times are unused: the loop is closed
		Seed:         seed,
	})
}

// connOf routes a key to a client. Writes to one key go through one
// connection, so their acknowledgments are ordered and the verify pass
// can call an older sequence number stale.
func connOf(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % conns)
}

// preloadItem is one key the set-up stores before the run.
type preloadItem struct {
	key  string
	size int
}

// preload returns every key once, in a seeded random order, with a
// value size drawn from the default value mix. The order is shuffled so
// that a key's popularity says nothing about where its block lands: the
// hot keys spread over many pages, as in a cache filled by real traffic,
// instead of sharing the first pages of each shard's heap.
func (w workload) preload(seed int64) []preloadItem {
	classes := kv.DefaultValueSizes()
	var total float64
	for _, c := range classes {
		total += c.Weight
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	items := make([]preloadItem, w.keys)
	for n, i := range rng.Perm(int(w.keys)) {
		size := classes[len(classes)-1].Bytes
		x := rng.Float64() * total
		for _, c := range classes {
			if x -= c.Weight; x < 0 {
				size = c.Bytes
				break
			}
		}
		items[n] = preloadItem{key: "user:" + strconv.Itoa(i), size: size}
	}
	return items
}
