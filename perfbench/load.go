package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"kona/internal/kv"
)

// worker is one closed-loop client: it owns one kvd connection and the
// keys that route to it (connOf), and sends its next request only after
// the previous reply arrived.
//
// The loop is closed because an open loop paced with time.Sleep is not
// usable on a small machine: on a shared 2-CPU VM, time.Sleep(100µs)
// overshoots by about 1ms at p50, which would swamp a 30-60µs get and is
// most of the 825µs p50 the open-loop kv-bench reports in results.txt.
type worker struct {
	id    int
	c     *client
	t     *tracer // records one span per op in the window; nil when untraced
	gen   *kv.Generator
	acked map[string]uint64 // key -> last acknowledged set seq (0 = preload)
	keys  []string          // every key this worker owns, in preload order
	vlen  map[string]int    // key -> current value length
	// valueBytes is the sum of vlen: the live value bytes this worker's
	// keys hold, the denominator of block_bytes_per_value_byte.
	valueBytes int64
	buf        []byte

	// Per-window tallies, reset by window.
	getUS, setUS []float64
	failed       uint64
	err          error // first failure of the window
}

func newWorker(id int, addr string, w workload, seed int64) (*worker, error) {
	gen, err := w.generator(seed)
	if err != nil {
		return nil, err
	}
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return &worker{
		id: id, c: c, gen: gen,
		acked: make(map[string]uint64),
		vlen:  make(map[string]int),
		buf:   make([]byte, 64<<10),
	}, nil
}

// preloadBatch is how many sets a preload client has in flight.
const preloadBatch = 64

// preload stores every key this worker owns once, pipelined.
func (wk *worker) preload(items []preloadItem) error {
	var batch []string
	drain := func() error {
		if err := wk.c.flush(); err != nil {
			return err
		}
		for _, key := range batch {
			if err := wk.c.readStored(); err != nil {
				return fmt.Errorf("preload %s: %w", key, err)
			}
			wk.acked[key] = 0
			wk.keys = append(wk.keys, key)
		}
		batch = batch[:0]
		return nil
	}
	for _, it := range items {
		if connOf(it.key) != wk.id {
			continue
		}
		wk.c.queueSet(it.key, kv.MakeValue(wk.buf, kv.Op{Key: it.key, ValueLen: it.size}))
		wk.vlen[it.key] = it.size
		wk.valueBytes += int64(it.size)
		batch = append(batch, it.key)
		if len(batch) == preloadBatch {
			if err := drain(); err != nil {
				return err
			}
		}
	}
	return drain()
}

// next returns the next generated op whose key this worker owns.
func (wk *worker) next() kv.Op {
	for {
		op := wk.gen.Next()
		if connOf(op.Key) == wk.id {
			return op
		}
	}
}

// do runs one op and returns its latency. Any failure is an error: a get
// must return the key (every key is preloaded) with a sequence number no
// older than the last acknowledged set, a set must be STORED.
func (wk *worker) do(op kv.Op) (time.Duration, error) {
	start := time.Now()
	if op.Read {
		wk.c.queueGet(op.Key)
		if err := wk.c.flush(); err != nil {
			return 0, err
		}
		found := false
		err := wk.c.readValues(func(key, val []byte) error {
			if string(key) != op.Key || found {
				return fmt.Errorf("get %s: answered for %q", op.Key, key)
			}
			found = true
			return wk.check(op.Key, val, false)
		})
		if err == nil && !found {
			err = fmt.Errorf("get %s: %w", op.Key, errNoValue)
		}
		return time.Since(start), err
	}
	wk.c.queueSet(op.Key, kv.MakeValue(wk.buf, op))
	err := wk.c.flush()
	if err == nil {
		err = wk.c.readStored()
	}
	lat := time.Since(start)
	if err != nil {
		return lat, fmt.Errorf("set %s: %w", op.Key, err)
	}
	wk.acked[op.Key] = op.Seq
	wk.valueBytes += int64(op.ValueLen - wk.vlen[op.Key])
	wk.vlen[op.Key] = op.ValueLen
	return lat, nil
}

// check validates a value read for key. The timed loop checks only the
// header (length and sequence number); the verify pass also checks every
// pattern byte with kv.ParseValue.
func (wk *worker) check(key string, val []byte, full bool) error {
	var seq uint64
	intact := len(val) >= 16 && binary.LittleEndian.Uint64(val[8:]) == uint64(len(val))
	if intact {
		seq = binary.LittleEndian.Uint64(val)
	}
	if full {
		seq, intact = kv.ParseValue(val)
	}
	if !intact {
		return fmt.Errorf("%w: %s torn", errVerify, key)
	}
	if seq < wk.acked[key] {
		return fmt.Errorf("%w: %s stale: seq %d, acknowledged %d", errVerify, key, seq, wk.acked[key])
	}
	return nil
}

// run issues ops until stop returns true, recording latencies.
func (wk *worker) run(stop func(done int) bool) {
	for done := 0; !stop(done); done++ {
		op := wk.next()
		lat, err := wk.do(op)
		if err != nil {
			wk.failed++
			if wk.err == nil {
				wk.err = err
			}
			// The connection may be out of step with the protocol now;
			// the run is already failed, so stop this client.
			return
		}
		if wk.t != nil {
			end := wk.t.now()
			verb := uint8('s')
			if op.Read {
				verb = 'g'
			}
			wk.t.add(span{kind: spanClient, op: verb, start: end - int64(lat), end: end})
		}
		us := float64(lat) / float64(time.Microsecond)
		if op.Read {
			wk.getUS = append(wk.getUS, us)
		} else {
			wk.setUS = append(wk.setUS, us)
		}
	}
}

// verifyBatch is how many keys one verify get asks for; it keeps the
// command line under the server's 2KB limit.
const verifyBatch = 100

// verify re-reads every key this worker ever got acknowledged and checks
// it holds an intact value no older than the last acknowledged write.
// Every key is preloaded, so the preload order covers them all; it is
// also the order the blocks were laid out in, which keeps the pass from
// fetching each page once per record on it.
func (wk *worker) verify() (checked, bad int, firstErr error) {
	if len(wk.keys) != len(wk.acked) {
		return 0, len(wk.acked), fmt.Errorf("%w: %d keys acknowledged, %d preloaded", errVerify, len(wk.acked), len(wk.keys))
	}
	keys := wk.keys
	for len(keys) > 0 {
		n := min(verifyBatch, len(keys))
		batch := keys[:n]
		keys = keys[n:]
		wk.c.queueGet(batch...)
		if err := wk.c.flush(); err != nil {
			return checked, bad + n + len(keys), err
		}
		seen := make(map[string]bool, n)
		err := wk.c.readValues(func(key, val []byte) error {
			k := string(key)
			if _, ok := wk.acked[k]; !ok || seen[k] {
				return fmt.Errorf("verify: unexpected value for %q", k)
			}
			seen[k] = true
			if err := wk.check(k, val, true); err != nil {
				bad++
				if firstErr == nil {
					firstErr = err
				}
			}
			return nil
		})
		if err != nil {
			return checked, bad + n + len(keys), err
		}
		checked += n
		for _, k := range batch {
			if !seen[k] {
				bad++
				if firstErr == nil {
					firstErr = fmt.Errorf("%w: %s missing", errVerify, k)
				}
			}
		}
	}
	return checked, bad, firstErr
}

// parallel runs f on every worker concurrently and returns the first
// error.
func parallel(ws []*worker, f func(*worker) error) error {
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, wk := range ws {
		wg.Add(1)
		go func(i int, wk *worker) {
			defer wg.Done()
			errs[i] = f(wk)
		}(i, wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
