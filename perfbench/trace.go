package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kona"
	"kona/internal/kv"
)

// The traced run records spans at every layer boundary the benchmark can
// see from outside the program: the load generator's ops, a listener
// wrapper on each server (kvd, memory nodes, controller) and a
// kv.Runtime wrapper between the store and the Kona runtime. Spans live
// in memory and are written out when the window ends.

const (
	spanServer     uint8 = iota // one kvd request: first byte read to reply written
	spanCoreRead                // kv.Runtime.Read into the Kona runtime
	spanCoreWrite               // kv.Runtime.Write
	spanCoreSync                // kv.Runtime.Sync (the 100ms background drain)
	spanMemnode                 // one memory-node RPC: first byte read to reply written
	spanController              // one controller RPC
	spanClient                  // one load-generator op: request sent to reply read
)

var spanNames = [...]string{"kv.server", "core.read", "core.write", "core.sync", "memnode.serve", "controller.serve", "client.op"}

// maxSpans bounds the in-memory trace (~32 bytes a span); spans past it
// are counted, not kept.
const maxSpans = 4 << 20

type span struct {
	start, end int64 // ns since the tracer's epoch
	parent     int32 // index+1 of the causing span, 0 = unknown
	kind       uint8
	// op is the request's first byte for a kvd request ('g'et, 's'et)
	// and the wire message kind byte for a memnode/controller request.
	op     uint8
	reads  uint16 // socket Read calls that returned bytes
	writes uint16 // socket Write calls (a writev reply is not seen)
}

func (s span) dur() int64 { return s.end - s.start }

type tracer struct {
	epoch   time.Time
	on      atomic.Bool
	dropped atomic.Uint64
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add keeps s if the tracer is recording.
func (t *tracer) add(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}

// listener wraps l so each accepted connection records one span per
// request. kind spanServer speaks the kvd text protocol; the others speak
// the cluster's framed protocol. A nil tracer returns l unchanged.
func (t *tracer) listener(l net.Listener, kind uint8) net.Listener {
	if t == nil {
		return l
	}
	return &tracedListener{Listener: l, t: t, kind: kind}
}

type tracedListener struct {
	net.Listener
	t    *tracer
	kind uint8
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return c, nil
	}
	return &tracedConn{TCPConn: tc, t: l.t, kind: l.kind}, nil
}

// tracedConn embeds *net.TCPConn so that net.Buffers writes from the
// cluster servers still become one writev: the wrapper must not add
// syscalls to the path it measures. The price is that writev replies
// bypass Write, so framed requests end where the next request's read
// begins, found by following the frame lengths.
//
// Read and Write run only on the connection's serving goroutine.
type tracedConn struct {
	*net.TCPConn
	t    *tracer
	kind uint8

	cur   span
	inReq bool
	wrote bool // text protocol: a reply was written since the last read
	pre   [framePrefixLen]byte
	preN  int // framed protocol: prefix bytes of the current frame seen
	need  int // framed protocol: header+payload bytes still to read
}

// framePrefixLen is the cluster wire prefix: magic(2) version(1) kind(1)
// header length(4, big endian) payload length(4, big endian).
const framePrefixLen = 12

func (c *tracedConn) Read(p []byte) (int, error) {
	entry := c.t.now()
	if c.kind != spanServer && c.inReq && c.preN == framePrefixLen && c.need == 0 {
		// The whole request frame was consumed before this call, so the
		// reply has been written: the request ended when the server came
		// back for the next one.
		c.cur.end = entry
		c.finish()
	}
	n, err := c.TCPConn.Read(p)
	if n == 0 {
		return n, err
	}
	if c.kind == spanServer && c.inReq && c.wrote {
		c.finish()
	}
	if !c.inReq {
		c.cur = span{kind: c.kind, start: c.t.now()}
		if c.kind == spanServer {
			c.cur.op = p[0]
		}
		c.inReq, c.wrote, c.preN, c.need = true, false, 0, 0
	}
	c.cur.reads++
	if c.kind != spanServer {
		c.consumeFrame(p[:n])
	}
	return n, err
}

// consumeFrame follows the cluster framing across reads.
func (c *tracedConn) consumeFrame(b []byte) {
	for len(b) > 0 {
		if c.preN < framePrefixLen {
			k := copy(c.pre[c.preN:], b)
			c.preN += k
			b = b[k:]
			if c.preN == framePrefixLen {
				c.cur.op = c.pre[3]
				c.need = int(binary.BigEndian.Uint32(c.pre[4:8])) + int(binary.BigEndian.Uint32(c.pre[8:12]))
			}
			continue
		}
		k := len(b)
		if k > c.need {
			k = c.need // a pipelined next frame would start here; the cluster client never pipelines
		}
		c.need -= k
		b = b[k:]
		if c.need == 0 {
			return
		}
	}
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.TCPConn.Write(p)
	if c.inReq {
		c.cur.writes++
		if c.kind == spanServer {
			c.cur.end = c.t.now()
			c.wrote = true
		}
	}
	return n, err
}

func (c *tracedConn) finish() {
	c.inReq = false
	if c.cur.end >= c.cur.start {
		c.t.add(c.cur)
	}
}

// tracedRuntime times every call the store makes into the runtime.
type tracedRuntime struct {
	rt kv.Runtime
	t  *tracer
}

func (r *tracedRuntime) Malloc(size uint64) (kona.Addr, error) { return r.rt.Malloc(size) }

func (r *tracedRuntime) Read(now kona.Time, addr kona.Addr, buf []byte) (kona.Time, error) {
	start := r.t.now()
	d, err := r.rt.Read(now, addr, buf)
	r.t.add(span{kind: spanCoreRead, start: start, end: r.t.now()})
	return d, err
}

func (r *tracedRuntime) Write(now kona.Time, addr kona.Addr, buf []byte) (kona.Time, error) {
	start := r.t.now()
	d, err := r.rt.Write(now, addr, buf)
	r.t.add(span{kind: spanCoreWrite, start: start, end: r.t.now()})
	return d, err
}

func (r *tracedRuntime) Sync(now kona.Time) (kona.Time, error) {
	start := r.t.now()
	d, err := r.rt.Sync(now)
	r.t.add(span{kind: spanCoreSync, start: start, end: r.t.now()})
	return d, err
}

// stop ends recording and returns the spans sorted by start, each
// linked to the span that caused it when exactly one candidate interval
// contains it:
//   - a core read (write) span to an open kvd get (set) request;
//   - a memnode or controller span to an open core span.
//
// The wrappers cannot see which goroutine runs a span (reading it costs
// as much as the spans measured), so with two clients and the sync loop
// a span inside two candidates stays unlinked. Self times are therefore
// computed in aggregate, which needs no links.
func (t *tracer) stop() []span {
	t.on.Store(false)
	t.mu.Lock()
	spans := t.spans
	t.spans = nil
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })

	var reqs, cores []int // spans that may still contain later spans
	prune := func(open []int, at int64) []int {
		kept := open[:0]
		for _, i := range open {
			if spans[i].end >= at {
				kept = append(kept, i)
			}
		}
		return kept
	}
	link := func(s *span, open []int, fits func(*span) bool) {
		found := -1
		for _, i := range open {
			if spans[i].end >= s.end && fits(&spans[i]) {
				if found >= 0 {
					return
				}
				found = i
			}
		}
		if found >= 0 {
			s.parent = int32(found + 1)
		}
	}
	for i := range spans {
		s := &spans[i]
		reqs = prune(reqs, s.start)
		cores = prune(cores, s.start)
		switch s.kind {
		case spanServer:
			reqs = append(reqs, i)
		case spanCoreRead, spanCoreWrite:
			verb := uint8('g')
			if s.kind == spanCoreWrite {
				verb = 's'
			}
			link(s, reqs, func(p *span) bool { return p.op == verb })
			cores = append(cores, i)
		case spanCoreSync:
			cores = append(cores, i)
		case spanMemnode, spanController:
			link(s, cores, func(*span) bool { return true })
		}
	}
	return spans
}

// writeSpans writes spans as tab-separated text, one per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\top\tstart_ns\tend_ns\treads\twrites")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n",
			i+1, s.parent, spanNames[s.kind], s.op, s.start, s.end, s.reads, s.writes)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
