package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"kona/internal/cluster"
	"kona/internal/core"
	"kona/internal/fpga"
	"kona/internal/kv"
	"kona/internal/telemetry"
)

var errVerify = errors.New("verify")

// Set-up repeats until setupBudget is spent or maxSetups are timed.
const (
	setupBudget = 2 * time.Second
	maxSetups   = 15
)

// runConfig is one benchmark invocation.
type runConfig struct {
	w       workload
	seed    int64
	window  time.Duration
	trace   bool
	warmOps int                         // untimed ops before the window, so FMem holds the hot set
	spans   string                      // file the traced run writes its spans to ("" = none)
	wrap    func(kv.Runtime) kv.Runtime // tests only: wraps every rack's runtime to plant faults
}

type metric struct {
	name, unit string
	value      float64
}

// result is what one invocation prints.
type result struct {
	correct           bool
	attempted, failed uint64
	metrics           []metric
	notes             []string // human-readable lines printed before the JSON
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect and says why.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.notef("FAIL: "+format, args...)
}

// session is one rack's life: set-up (rack start plus preload), warm-up,
// the timed window, verify.
type session struct {
	r     *rack
	ws    []*worker
	t     *tracer // records spans during the window; nil when untraced
	setup time.Duration
}

func newSession(cfg runConfig, o rackOpts) (*session, error) {
	start := time.Now()
	r, err := startRack(cfg.w, o)
	if err != nil {
		return nil, err
	}
	s := &session{r: r, t: o.tracer}
	for i := 0; i < conns; i++ {
		wk, err := newWorker(i, r.addr, cfg.w, cfg.seed)
		if err != nil {
			s.close()
			return nil, err
		}
		wk.t = o.tracer
		s.ws = append(s.ws, wk)
	}
	items := cfg.w.preload(cfg.seed)
	if err := parallel(s.ws, func(wk *worker) error { return wk.preload(items) }); err != nil {
		s.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	s.setup = time.Since(start)
	return s, nil
}

// closeMeasuringHeap closes the rack and returns, in MiB, the live heap
// it held on the kvd side: what a full collection leaves with the rack
// up, less what it leaves once the rack is gone, less the memory pools.
// Each memory node allocates a pool of nodeCapacity plus a log region,
// and the controller allocates the same again for every node it
// registers (cluster.ControllerServer builds a MemoryNode per
// registration). The pools are sized by the workload, allocated whole
// and, from the second rack of a process on, zeroed page by page, so they
// would swamp a process-wide figure such as peak RSS. What is left is
// the FMem frames, the store's index and heap metadata, the server, the
// runtime's transport and the controller's and memory nodes'
// bookkeeping. The clients' own state is counted in neither term. The
// second collection also frees the rack, so each set-up starts from the
// same heap.
func (s *session) closeMeasuringHeap(w workload) float64 {
	up := liveHeap()
	s.close()
	s.r = nil
	down := liveHeap()
	pools := 2 * memNodes * (w.nodeCapacity + cluster.LogRegionSize)
	return (up - down - float64(pools)) / (1 << 20)
}

// liveHeap is the heap's live bytes after a full collection. It collects
// twice: the first pass moves sync.Pool caches to their victim lists, the
// second frees them.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func (s *session) close() {
	for _, wk := range s.ws {
		wk.c.close()
	}
	s.r.close()
}

// warm runs n untimed ops split across the clients.
func (s *session) warm(n int) error {
	return parallel(s.ws, func(wk *worker) error {
		wk.run(func(done int) bool { return done >= n/conns })
		wk.getUS, wk.setUS = wk.getUS[:0], wk.setUS[:0]
		return wk.err
	})
}

// windowResult is one timed window, every client's samples merged.
type windowResult struct {
	elapsed      time.Duration
	getUS, setUS []float64
	failed       uint64
	err          error
}

func (w windowResult) ops() int { return len(w.getUS) + len(w.setUS) }

// merge pools o's samples into w, as if the windows ran back to back.
func (w *windowResult) merge(o windowResult) {
	w.elapsed += o.elapsed
	w.getUS = append(w.getUS, o.getUS...)
	w.setUS = append(w.setUS, o.setUS...)
	w.failed += o.failed
	if w.err == nil {
		w.err = o.err
	}
}

func (w windowResult) opsPerSec() float64 { return float64(w.ops()) / w.elapsed.Seconds() }

// window runs the closed loop for d. Ops still in flight at the deadline
// finish and count; elapsed runs to the last of them.
func (s *session) window(d time.Duration) windowResult {
	if s.t != nil {
		s.t.on.Store(true)
		defer s.t.on.Store(false)
	}
	start := time.Now()
	deadline := start.Add(d)
	ends := make([]time.Duration, len(s.ws))
	_ = parallel(s.ws, func(wk *worker) error {
		wk.getUS, wk.setUS, wk.failed, wk.err = wk.getUS[:0], wk.setUS[:0], 0, nil
		wk.run(func(int) bool { return !time.Now().Before(deadline) })
		ends[wk.id] = time.Since(start)
		return nil
	})
	var res windowResult
	for i, wk := range s.ws {
		res.elapsed = max(res.elapsed, ends[i])
		res.getUS = append(res.getUS, wk.getUS...)
		res.setUS = append(res.setUS, wk.setUS...)
		res.failed += wk.failed
		if res.err == nil {
			res.err = wk.err
		}
	}
	return res
}

// verify re-reads every acknowledged key on every client.
func (s *session) verify(res *result) {
	var checked, bad atomic.Int64
	err := parallel(s.ws, func(wk *worker) error {
		c, b, err := wk.verify()
		checked.Add(int64(c))
		bad.Add(int64(b))
		return err
	})
	res.notef("verify: %d acknowledged keys re-read, %d missing/torn/stale", checked.Load(), bad.Load())
	if err != nil || bad.Load() != 0 || checked.Load() == 0 {
		res.fail("verify: %v", err)
	}
}

// snapshot is every layer's counters at one instant.
type snapshot struct {
	fpga      fpga.Stats
	evict     core.EvictStats
	store     kv.StoreStats
	reg       telemetry.Snapshot
	cpu       time.Duration
	mem       runtime.MemStats
	writeLogs []uint64
}

func (s *session) snapshot() snapshot {
	sn := snapshot{
		fpga:      s.r.kona.FPGAStats(),
		evict:     s.r.kona.EvictStats(),
		store:     s.r.store.Stats(),
		reg:       s.r.reg.Snapshot(),
		cpu:       cpuTime(),
		writeLogs: s.r.writeLogs(),
	}
	runtime.ReadMemStats(&sn.mem)
	return sn
}

// checkRemote fails the run when the workload stopped exercising the
// layer it exists for.
func checkRemote(w workload, before, after snapshot, res *result) {
	switch w.remote {
	case needFetches:
		if n := after.fpga.RemoteFetches - before.fpga.RemoteFetches; n == 0 {
			res.fail("%s fetched no remote pages in the window", w.name)
		}
	case needWriteLog:
		for i := range after.writeLogs {
			if after.writeLogs[i] == before.writeLogs[i] {
				res.fail("%s: memnode %d received no WriteLog RPCs in the window", w.name, i)
			}
		}
	}
}

// finishWindow folds a window's failures into the result.
func finishWindow(win windowResult, res *result) {
	res.attempted += uint64(win.ops()) + win.failed
	res.failed += win.failed
	if win.err != nil {
		res.fail("window: %v", win.err)
	}
}

// measuredRacks is how many racks an end-to-end run measures, each for
// an equal share of the window with its own seed derived from --seed.
// Pooling their samples averages out what one rack's data layout and one
// stretch of a shared machine's time add to the run-to-run spread, and
// gives setup_s a median of several set-ups.
const measuredRacks = 3

// run performs one benchmark invocation.
func run(cfg runConfig) (*result, error) {
	if cfg.trace {
		return runTraced(cfg)
	}
	res := &result{correct: true}
	var setups, heaps []float64
	var total windowResult
	for i := 0; i < measuredRacks; i++ {
		rc := cfg
		rc.seed = cfg.seed*measuredRacks + int64(i)
		s, err := newSession(rc, rackOpts{wrap: cfg.wrap})
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		win, _, _ := s.measure(rc, cfg.window/measuredRacks, res)
		heaps = append(heaps, s.closeMeasuringHeap(rc.w))
		total.merge(win)
	}
	// A small keyspace sets up in tens of milliseconds, where one slow
	// allocation moves the median; repeat set-up while it is cheap.
	for spent := sum(setups); spent < setupBudget.Seconds() && len(setups) < maxSetups; {
		s, err := newSession(cfg, rackOpts{wrap: cfg.wrap})
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		spent += s.setup.Seconds()
		s.close()
		runtime.GC()
	}

	res.add("ops_per_s", "1/s", total.opsPerSec())
	for _, m := range []struct {
		name    string
		samples []float64
		q       float64
	}{
		{"get_p50_us", total.getUS, 0.50}, {"get_p999_us", total.getUS, 0.999},
		{"set_p50_us", total.setUS, 0.50}, {"set_p999_us", total.setUS, 0.999},
	} {
		if err := addPercentile(res, m.name, m.samples, m.q); err != nil {
			return nil, err
		}
	}
	res.notef("latency from %d get and %d set samples", len(total.getUS), len(total.setUS))
	res.add("setup_s", "s", median(setups))
	res.add("kvd_heap_mb", "MB", median(heaps))
	res.notef("set-up times (s): %s", fmtFloats(setups))
	res.notef("kvd-side live heap per rack (MB): %s", fmtFloats(heaps))
	return res, nil
}

// measure warms the rack up, runs one timed window of length d, checks
// the remote-traffic gate and verifies every acknowledged key. It
// returns the window and the counters around it.
func (s *session) measure(cfg runConfig, d time.Duration, res *result) (win windowResult, before, after snapshot) {
	t0 := time.Now()
	if err := s.warm(cfg.warmOps); err != nil {
		res.fail("warm-up: %v", err)
	}
	t1 := time.Now()
	before = s.snapshot()
	win = s.window(d)
	after = s.snapshot()
	finishWindow(win, res)
	checkRemote(cfg.w, before, after, res)
	t2 := time.Now()
	s.verify(res)
	if err := s.r.err(); err != nil {
		res.fail("%v", err)
	}
	res.notef("rack seed %d: set-up %.2fs, warm-up %.2fs, window %.2fs (%.0f ops/s), verify %.2fs",
		cfg.seed, s.setup.Seconds(), t1.Sub(t0).Seconds(), win.elapsed.Seconds(), win.opsPerSec(), time.Since(t2).Seconds())
	return win, before, after
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// addPercentile adds the q-percentile of latency samples (µs), or fails
// when the window gave too few samples to report it.
func addPercentile(res *result, name string, samples []float64, q float64) error {
	v, ok := percentile(sortedCopy(samples), q)
	if !ok {
		return fmt.Errorf("%s: %d samples are too few; run longer", name, len(samples))
	}
	res.add(name, "us", v)
	return nil
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
