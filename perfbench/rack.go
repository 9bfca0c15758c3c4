package main

import (
	"fmt"
	"net"
	"sync"

	"kona"
	"kona/internal/cluster"
	"kona/internal/kv"
	"kona/internal/telemetry"
)

// rack is a full kona-kvd deployment inside this process, every part on
// its own loopback TCP listener: a controller, memNodes memory nodes,
// and a kvd Server on a Store over a TCP-attached runtime. It is built
// only through the public constructors the daemons use (cluster.Serve*On,
// kona.NewTCPWith, kv.NewStore, kv.NewServer), with the daemons' default
// settings. The daemons' control loops (health sweep, repair, load
// reports) are not started: no workload here fails a node.
type rack struct {
	ctrl     *cluster.ControllerServer
	nodes    []*cluster.MemoryNode
	nodeSrvs []*cluster.MemoryNodeServer
	kona     *kona.Runtime
	store    *kv.Store
	srv      *kv.Server
	addr     string
	// reg holds every layer's telemetry; nil (disabled) unless traced.
	reg *telemetry.Registry

	stopSync chan struct{}
	bg       sync.WaitGroup
	mu       sync.Mutex
	bgErr    error // first background sync or serve error
}

// rackOpts are the two ways a run alters the production rack: tracing
// (conn and runtime wrappers plus live telemetry registries) and, in
// tests only, a runtime wrapper that plants faults.
type rackOpts struct {
	tracer *tracer
	wrap   func(kv.Runtime) kv.Runtime
}

func startRack(w workload, o rackOpts) (r *rack, err error) {
	r = &rack{stopSync: make(chan struct{})}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if o.tracer != nil {
		r.reg = telemetry.New(0)
	}

	cl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return r, fmt.Errorf("controller listen: %w", err)
	}
	r.ctrl = cluster.ServeControllerOnWith(cluster.NewController(), o.tracer.listener(cl, spanController), r.reg)
	cc := cluster.DialController(r.ctrl.Addr())
	defer cc.Close()
	for i := 0; i < memNodes; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return r, fmt.Errorf("memnode listen: %w", err)
		}
		node := cluster.NewMemoryNode(i, w.nodeCapacity)
		ns := cluster.ServeMemoryNodeOnWith(node, o.tracer.listener(l, spanMemnode), r.reg)
		r.nodes = append(r.nodes, node)
		r.nodeSrvs = append(r.nodeSrvs, ns)
		epoch, err := cc.RegisterNodeEpoch(i, w.nodeCapacity, ns.Addr())
		if err != nil {
			return r, fmt.Errorf("register memnode %d: %w", i, err)
		}
		node.SetIncarnation(epoch)
	}

	cfg := kona.DefaultConfig(fmemBytes)
	cfg.Replicas = w.replicas
	cfg.Metrics = r.reg
	tr := kona.DefaultTransportPolicy()
	tr.Metrics = r.reg
	r.kona = kona.NewTCPWith(cfg, r.ctrl.Addr(), tr)
	var rt kv.Runtime = r.kona
	if o.wrap != nil {
		rt = o.wrap(rt)
	}
	if o.tracer != nil {
		rt = &tracedRuntime{rt: rt, t: o.tracer}
	}
	r.store = kv.NewStore(rt, kv.Config{Shards: storeShards, Metrics: r.reg})
	r.srv = kv.NewServer(r.store, r.reg)

	kl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return r, fmt.Errorf("kvd listen: %w", err)
	}
	r.addr = kl.Addr().String()
	r.bg.Add(2)
	go func() {
		defer r.bg.Done()
		if err := r.srv.Serve(o.tracer.listener(kl, spanServer)); err != nil {
			r.noteErr(fmt.Errorf("kvd serve: %w", err))
		}
	}()
	go func() {
		defer r.bg.Done()
		r.srv.RunSyncLoop(syncInterval, r.stopSync, r.noteErr)
	}()
	return r, nil
}

func (r *rack) noteErr(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.bgErr == nil {
		r.bgErr = err
	}
}

// err returns the first error a background goroutine hit.
func (r *rack) err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bgErr
}

// close stops every server and goroutine the rack started and waits for
// them. Safe on a partly built rack.
func (r *rack) close() {
	if r.srv != nil {
		r.srv.Close()
	}
	close(r.stopSync)
	r.bg.Wait()
	for _, ns := range r.nodeSrvs {
		ns.Close()
	}
	if r.ctrl != nil {
		r.ctrl.Close()
	}
}

// writeLogs returns how many WriteLog RPCs each memory node has applied.
func (r *rack) writeLogs() []uint64 {
	out := make([]uint64, len(r.nodes))
	for i, n := range r.nodes {
		out[i], _ = n.ReceiverStats()
	}
	return out
}
