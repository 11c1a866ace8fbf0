package gpu

import (
	"fmt"

	"netcrafter/internal/flit"
	"netcrafter/internal/obs"
	"netcrafter/internal/sim"
	"netcrafter/internal/txn"
	"netcrafter/internal/vm"
	"netcrafter/internal/workload"
)

// GPU assembles one GPU: CUs with their L1s and L1 TLBs, the shared L2
// TLB and GMMU, the memory partition, and the RDMA engine.
type GPU struct {
	ID    int
	Name  string
	cfg   Config
	topo  Topology
	sched *sim.Scheduler

	CUs   []*CU
	L2TLB *vm.TLB
	GMMU  *vm.GMMU
	Mem   *MemPartition
	RDMA  *RDMA

	// table is the transaction pool every request this GPU originates
	// is acquired from — usually shared per cluster (cluster.System
	// passes one table to all GPUs of a cluster).
	table *txn.Table

	// ObsL1MissLat, shared by this GPU's CUs, records the miss-to-fill
	// latency of primary L1 misses (local and remote). Wired by
	// AttachObs; nil costs nothing.
	ObsL1MissLat *obs.Hist

	// Work management.
	queue       []workload.Program // wavefronts awaiting a CU slot
	activeWaves int
	localWrites int // posted local writes in flight
}

// New builds a GPU. The page table is shared system-wide; the topology
// tells the GPU where physical addresses live. tbl is the transaction
// table the GPU acquires from (shared per cluster); nil creates a
// private one. sched and pool are the owning shard's scheduler and flit
// and packet free list.
func New(id int, cfg Config, topo Topology, pt *vm.PageTable, tbl *txn.Table, sched *sim.Scheduler, pool *flit.Pool) *GPU {
	cfg = cfg.WithDefaults()
	g := &GPU{
		ID:    id,
		Name:  fmt.Sprintf("gpu%d", id),
		cfg:   cfg,
		topo:  topo,
		sched: sched,
	}
	if tbl == nil {
		tbl = txn.NewTable(g.Name)
	}
	g.table = tbl
	g.Mem = NewMemPartition(g.Name+".mem", id, cfg, tbl, sched)
	g.RDMA = NewRDMA(g.Name+".rdma", id, topo, g.Mem, cfg, tbl, sched, pool)
	g.GMMU = vm.NewGMMU(g.Name+".gmmu", cfg.GMMU, pt, &pteRouter{g: g}, sched)
	g.L2TLB = vm.NewTLB(g.Name+".l2tlb", cfg.L2TLB, g.GMMU, sched)
	for i := 0; i < cfg.NumCUs; i++ {
		g.CUs = append(g.CUs, newCU(fmt.Sprintf("%s.cu%d", g.Name, i), i, g))
	}
	return g
}

// Config returns the GPU configuration (after defaulting).
func (g *GPU) Config() Config { return g.cfg }

// Table returns the transaction table this GPU acquires from.
func (g *GPU) Table() *txn.Table { return g.table }

// AttachObs wires this GPU's components into the metrics registry and
// the span recorder. Either argument may be nil: a nil registry yields
// nil instruments (free no-ops) and a nil recorder leaves packet spans
// disabled. Call before Run; attaching mid-run only affects packets and
// samples produced afterwards.
func (g *GPU) AttachObs(reg *obs.Registry, spans *obs.SpanRecorder) {
	g.RDMA.Spans = spans
	p := g.Name + "."
	g.ObsL1MissLat = reg.Hist(p + "l1.miss_latency_cycles")
	g.Mem.ObsReadLat = reg.Hist(p + "mem.read_latency_cycles")
	g.Mem.DRAM().ObsServiceLat = reg.Hist(p + "dram.service_latency_cycles")
	g.GMMU.ObsWalkLat = reg.Hist(p + "gmmu.walk_latency_cycles")
	reg.GaugeFunc(p+"cu.instructions", func() float64 { return float64(g.Instructions()) })
	reg.GaugeFunc(p+"l1.accesses", func() float64 { return float64(g.L1Accesses()) })
	reg.GaugeFunc(p+"l1.misses", func() float64 { return float64(g.L1Misses()) })
	reg.GaugeFunc(p+"mem.l2_hits", func() float64 { return float64(g.Mem.L2Hits.Value()) })
	reg.GaugeFunc(p+"mem.l2_misses", func() float64 { return float64(g.Mem.L2Misses.Value()) })
	reg.GaugeFunc(p+"dram.bytes_read", func() float64 { return float64(g.Mem.DRAM().BytesRead.Value()) })
	reg.GaugeFunc(p+"dram.bytes_written", func() float64 { return float64(g.Mem.DRAM().BytesWrit.Value()) })
	reg.GaugeFunc(p+"rdma.remote_reads", func() float64 { return float64(g.RDMA.Stats.RemoteReads.Value()) })
	reg.GaugeFunc(p+"rdma.remote_writes", func() float64 { return float64(g.RDMA.Stats.RemoteWrites.Value()) })
	reg.GaugeFunc(p+"rdma.served_reads", func() float64 { return float64(g.RDMA.Stats.ServedReads.Value()) })
	reg.GaugeFunc(p+"gmmu.walks", func() float64 { return float64(g.GMMU.Stats.Walks.Value()) })
	reg.GaugeFunc(p+"gmmu.pwc_hits", func() float64 { return float64(g.GMMU.Stats.PWCHits.Value()) })
}

// Tickers returns the engine-driven components of this GPU.
func (g *GPU) Tickers() []sim.Ticker {
	ts := []sim.Ticker{g.RDMA}
	ts = append(ts, g.Mem.Tickers()...)
	return ts
}

// EnqueueWave schedules one wavefront program for execution on this
// GPU. Call before or during simulation; dispatch happens via the
// scheduler.
func (g *GPU) EnqueueWave(prog workload.Program, now sim.Cycle) {
	g.queue = append(g.queue, prog)
	g.activeWaves++
	g.sched.After(now, 1, g.dispatch)
}

func (g *GPU) dispatch(now sim.Cycle) {
	for _, cu := range g.CUs {
		for cu.freeSlots() > 0 && len(g.queue) > 0 {
			prog := g.queue[0]
			g.queue = g.queue[1:]
			cu.start(prog, now)
		}
	}
}

// waveDone is called by a CU when a wavefront retires.
func (g *GPU) waveDone(now sim.Cycle) {
	g.activeWaves--
	if len(g.queue) > 0 {
		g.dispatch(now)
	}
}

// Idle reports whether the GPU has no wavefronts and no outstanding
// memory activity it initiated.
func (g *GPU) Idle() bool {
	return g.activeWaves == 0 &&
		len(g.queue) == 0 &&
		g.localWrites == 0 &&
		g.RDMA.OutstandingWrites() == 0 &&
		g.RDMA.PendingReads() == 0
}

// ActiveWaves returns wavefronts queued or running.
func (g *GPU) ActiveWaves() int { return g.activeWaves }

// FlushL1 invalidates all CU L1 caches (software coherence at kernel
// boundaries).
func (g *GPU) FlushL1() {
	for _, cu := range g.CUs {
		cu.L1.InvalidateAll()
	}
}

// Instructions sums executed wavefront instructions across CUs.
func (g *GPU) Instructions() int64 {
	var n int64
	for _, cu := range g.CUs {
		n += cu.Stats.Instructions.Value()
	}
	return n
}

// L1Misses sums L1 line and sector misses across CUs.
func (g *GPU) L1Misses() int64 {
	var n int64
	for _, cu := range g.CUs {
		n += cu.L1.Stats.Misses.Value() + cu.L1.Stats.SectorMisses.Value()
	}
	return n
}

// L1Accesses sums L1 accesses across CUs.
func (g *GPU) L1Accesses() int64 {
	var n int64
	for _, cu := range g.CUs {
		n += cu.L1.Stats.Accesses.Value()
	}
	return n
}

// pteRouter implements vm.PTEReader over the GPU's memory paths: local
// PTEs through the local L2, remote ones as PTReq packets.
type pteRouter struct {
	g *GPU
}

func (p *pteRouter) ReadPTE(t *txn.Transaction, addr uint64, now sim.Cycle) {
	if p.g.topo.HomeGPU(addr) == p.g.ID {
		p.g.Mem.ReadLine(t, addr, now)
		return
	}
	p.g.RDMA.ReadPTERemote(t, addr, now)
}
