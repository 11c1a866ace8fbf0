package gpu

import (
	"netcrafter/internal/cache"
	"netcrafter/internal/dram"
	"netcrafter/internal/obs"
	"netcrafter/internal/sim"
	"netcrafter/internal/stats"
	"netcrafter/internal/txn"
)

// MemPartition is one GPU's share of the global memory space: its
// banked L2 cache backed by its DRAM stack. It serves line reads and
// writes from local CUs, from remote GPUs (via the RDMA engine), and
// PTE reads from page table walkers (PTEs are cached in L2 alongside
// data, per Section 2.3).
type MemPartition struct {
	Name  string
	gpuID int
	cfg   Config
	banks []*cache.Cache
	// bankFree[i] is the next cycle bank i can accept a request
	// (1 request/cycle service).
	bankFree []sim.Cycle
	dram     *dram.DRAM
	// table supplies the pooled transactions for L2 victim write-backs
	// (the only requests the partition originates itself).
	table *txn.Table
	sched *sim.Scheduler

	Reads       stats.Counter
	Writes      stats.Counter
	L2Hits      stats.Counter
	L2Misses    stats.Counter
	DRAMFetches stats.Counter
	// ObsReadLat, when non-nil, records the accept-to-done latency of
	// every ReadLine (L2 hit or DRAM fill) into the metrics registry.
	ObsReadLat *obs.Hist
}

// NewMemPartition builds the partition; register its DRAM with the
// engine (Tickers returns it).
func NewMemPartition(name string, gpuID int, cfg Config, tbl *txn.Table, sched *sim.Scheduler) *MemPartition {
	m := &MemPartition{
		Name:     name,
		gpuID:    gpuID,
		cfg:      cfg,
		bankFree: make([]sim.Cycle, cfg.L2Banks),
		dram:     dram.New(name+".dram", cfg.DRAM, sched),
		table:    tbl,
		sched:    sched,
	}
	for i := 0; i < cfg.L2Banks; i++ {
		m.banks = append(m.banks, cache.New(cfg.L2Bank))
	}
	return m
}

// Tickers returns the components the engine must tick.
func (m *MemPartition) Tickers() []sim.Ticker { return []sim.Ticker{m.dram} }

// DRAM exposes the memory stack (stats).
func (m *MemPartition) DRAM() *dram.DRAM { return m.dram }

func (m *MemPartition) bankIdx(paddr uint64) int {
	return int((paddr / uint64(m.cfg.L2Bank.LineBytes)) % uint64(m.cfg.L2Banks))
}

// lineAddr returns the line-aligned address.
func (m *MemPartition) lineAddr(paddr uint64) uint64 {
	lb := uint64(m.cfg.L2Bank.LineBytes)
	return paddr / lb * lb
}

// Continuation roles the partition parks on transactions. Arg is the
// line address except where noted.
const (
	// memRoleObs — latency pass-through: observe accept-to-done before
	// unwinding to the caller. Arg is the accept cycle.
	memRoleObs uint16 = iota
	// memRoleReadLookup — the L2 lookup latency elapsed for a read.
	memRoleReadLookup
	// memRoleDRAMFill — DRAM returned the line; install it in the bank.
	memRoleDRAMFill
	// memRoleWriteLookup — the L2 lookup latency elapsed for a write.
	memRoleWriteLookup
	// memRoleWBDone — a victim write-back drained into DRAM.
	memRoleWBDone
)

// OnComplete implements txn.Handler.
func (m *MemPartition) OnComplete(t *txn.Transaction, f txn.Frame, at sim.Cycle) {
	switch f.Role {
	case memRoleObs:
		m.ObsReadLat.Observe(float64(at - sim.Cycle(f.Arg)))
		t.Complete(at)
	case memRoleReadLookup:
		m.readLookup(t, f.Arg, at)
	case memRoleDRAMFill:
		bank := m.banks[m.bankIdx(f.Arg)]
		if ev, evicted := bank.Fill(f.Arg, bank.Config().FullMask()); evicted && ev.Dirty {
			// Write-back of the victim, fire-and-forget.
			m.dramWrite(ev.LineAddr, at)
		}
		t.Complete(at)
	case memRoleWriteLookup:
		m.writeLookup(t, f.Arg, at)
	case memRoleWBDone:
		t.Release()
	}
}

// ReadLine fetches the full cache line containing paddr through the L2
// bank (fills on miss from DRAM); t completes when the line is
// available. Always accepts (the DRAM queue is unbounded; bank
// contention is modeled as queueing delay on bankFree).
func (m *MemPartition) ReadLine(t *txn.Transaction, paddr uint64, now sim.Cycle) {
	m.Reads.Inc()
	if m.ObsReadLat != nil {
		t.Push(m, memRoleObs, uint64(now), nil)
	}
	bi := m.bankIdx(paddr)
	start := now
	if m.bankFree[bi] > start {
		start = m.bankFree[bi]
	}
	m.bankFree[bi] = start + 1 // one request per cycle per bank
	t.SetState(txn.StateL2, now)
	t.Push(m, memRoleReadLookup, m.lineAddr(paddr), nil)
	t.CompleteAt(m.sched, start+m.cfg.L2Latency)
}

func (m *MemPartition) readLookup(t *txn.Transaction, la uint64, at sim.Cycle) {
	bank := m.banks[m.bankIdx(la)]
	if bank.Lookup(la, bank.Config().FullMask()) == cache.Hit {
		m.L2Hits.Inc()
		t.Complete(at)
		return
	}
	m.L2Misses.Inc()
	m.fetchFromDRAM(t, la, at)
}

func (m *MemPartition) fetchFromDRAM(t *txn.Transaction, la uint64, now sim.Cycle) {
	m.DRAMFetches.Inc()
	t.Mem = txn.MemOp{Addr: la, Bytes: m.cfg.L2Bank.LineBytes}
	t.Push(m, memRoleDRAMFill, la, nil)
	m.dram.Access(t, now)
}

// dramWrite flushes a dirty line to DRAM under its own pooled
// write-back transaction (the partition is the originator here, so the
// drain stays visible in the in-flight table).
func (m *MemPartition) dramWrite(la uint64, now sim.Cycle) {
	w := m.table.Acquire(txn.KindWriteback, now)
	w.PAddr = la
	w.OriginGPU = m.gpuID
	w.Mem = txn.MemOp{Addr: la, Bytes: m.cfg.L2Bank.LineBytes, Write: true}
	w.Push(m, memRoleWBDone, 0, nil)
	m.dram.Access(w, now)
}

// WriteLine performs a store of the line containing paddr: write-back
// L2 with no-allocate-on-miss (misses go straight to DRAM); t completes
// when the write is accepted by the L2/DRAM.
func (m *MemPartition) WriteLine(t *txn.Transaction, paddr uint64, now sim.Cycle) {
	m.Writes.Inc()
	bi := m.bankIdx(paddr)
	start := now
	if m.bankFree[bi] > start {
		start = m.bankFree[bi]
	}
	m.bankFree[bi] = start + 1
	t.SetState(txn.StateL2, now)
	t.Push(m, memRoleWriteLookup, m.lineAddr(paddr), nil)
	t.CompleteAt(m.sched, start+m.cfg.L2Latency)
}

func (m *MemPartition) writeLookup(t *txn.Transaction, la uint64, at sim.Cycle) {
	bank := m.banks[m.bankIdx(la)]
	if bank.Write(la, bank.Config().FullMask()) {
		t.Complete(at) // dirty in L2; written back on eviction
		return
	}
	m.dramWrite(la, at)
	t.Complete(at)
}
