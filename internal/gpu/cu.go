package gpu

import (
	"fmt"

	"netcrafter/internal/cache"
	"netcrafter/internal/flit"
	"netcrafter/internal/sim"
	"netcrafter/internal/stats"
	"netcrafter/internal/txn"
	"netcrafter/internal/vm"
	"netcrafter/internal/workload"
)

// CUStats counts one compute unit's activity.
type CUStats struct {
	Instructions stats.Counter
}

// CU is one compute unit: a pool of wavefront slots executing access
// streams through a private L1 cache and L1 TLB. Execution is fully
// callback-driven off the shared scheduler; the CU is not a Ticker.
type CU struct {
	Name  string
	id    int
	gpu   *GPU
	cfg   Config
	sched *sim.Scheduler

	L1    *cache.Cache
	L1TLB *vm.TLB
	mshr  *cache.MSHR[*txn.Transaction]

	active int
	Stats  CUStats
}

// wavefront is one in-flight wavefront's execution state.
type wavefront struct {
	prog        workload.Program
	outstanding int
	// compute is the current instruction's compute latency, charged when
	// its last access completes. Only one instruction is in flight per
	// wavefront, so a single field suffices.
	compute sim.Cycle
	cu      *CU
	// stepFn is the reusable "advance this wavefront" callback; every
	// instruction boundary reschedules the same closure instead of
	// allocating a fresh one per instruction.
	stepFn func(sim.Cycle)
}

func newCU(name string, id int, g *GPU) *CU {
	return &CU{
		Name:  name,
		id:    id,
		gpu:   g,
		cfg:   g.cfg,
		sched: g.sched,
		L1:    cache.New(g.cfg.L1),
		L1TLB: vm.NewTLB(name+".l1tlb", g.cfg.L1TLB, g.L2TLB, g.sched),
		mshr:  cache.NewMSHR[*txn.Transaction](g.cfg.L1.MSHRs),
	}
}

// freeSlots reports how many wavefronts the CU can still accept.
func (cu *CU) freeSlots() int { return cu.cfg.WavefrontSlots - cu.active }

// start begins executing a wavefront program.
func (cu *CU) start(prog workload.Program, now sim.Cycle) {
	cu.active++
	wf := &wavefront{prog: prog, cu: cu}
	wf.stepFn = func(at sim.Cycle) { cu.step(wf, at) }
	cu.sched.After(now, 1, wf.stepFn)
}

// Continuation roles a CU parks on its transactions.
const (
	// cuRoleIssue — the coalescer delay (or a TLB-reject poll interval)
	// elapsed; attempt the translation.
	cuRoleIssue uint16 = iota
	// cuRoleRouted — translation resolved into t.Base; compute the
	// physical address and route to the load or store path.
	cuRoleRouted
	// cuRoleAccessDone — the whole access finished; wavefront
	// bookkeeping. Ref is the *wavefront.
	cuRoleAccessDone
	// cuRoleL1Lookup — the L1 probe latency elapsed.
	cuRoleL1Lookup
	// cuRoleMSHRRetry — MSHR-stall poll. Arg is the line address.
	cuRoleMSHRRetry
	// cuRoleReplay — a merged waiter the (trimmed) fill did not cover;
	// replay its read.
	cuRoleReplay
	// cuRoleFillLocal — the local partition returned the line. Arg is
	// the fetch-issue cycle (for miss-latency accounting).
	cuRoleFillLocal
	// cuRoleFillRemote — the remote home returned the line (possibly
	// trimmed, recorded in t.Trimmed). Arg is the fetch-issue cycle.
	cuRoleFillRemote
	// cuRoleLocalWriteDone — a posted local write drained into the
	// partition.
	cuRoleLocalWriteDone
)

// OnComplete implements txn.Handler.
func (cu *CU) OnComplete(t *txn.Transaction, f txn.Frame, at sim.Cycle) {
	switch f.Role {
	case cuRoleIssue:
		cu.issue(t, at)
	case cuRoleRouted:
		cu.routed(t, at)
	case cuRoleAccessDone:
		wf := f.Ref.(*wavefront)
		wf.outstanding--
		if wf.outstanding == 0 {
			cu.sched.After(at, wf.compute+1, wf.stepFn)
		}
		t.Release()
	case cuRoleL1Lookup:
		cu.l1Lookup(t, at)
	case cuRoleMSHRRetry:
		cu.retryRead(f.Arg, t, at)
	case cuRoleReplay:
		cu.read(t, at)
	case cuRoleFillLocal:
		cu.gpu.ObsL1MissLat.Observe(float64(at - sim.Cycle(f.Arg)))
		cu.fill(t.PAddr/flit.LineBytes*flit.LineBytes, false, t, at)
	case cuRoleFillRemote:
		cu.gpu.ObsL1MissLat.Observe(float64(at - sim.Cycle(f.Arg)))
		cu.fill(t.PAddr/flit.LineBytes*flit.LineBytes, t.Trimmed, t, at)
	case cuRoleLocalWriteDone:
		cu.gpu.localWrites--
		t.Release()
	}
}

// step fetches and issues the wavefront's next instruction.
func (cu *CU) step(wf *wavefront, now sim.Cycle) {
	in, ok := wf.prog.Next()
	if !ok {
		cu.active--
		cu.gpu.waveDone(now)
		return
	}
	cu.Stats.Instructions.Inc()
	if len(in.Accesses) == 0 {
		cu.sched.After(now, sim.Cycle(in.ComputeCycles)+1, wf.stepFn)
		return
	}
	wf.outstanding = len(in.Accesses)
	wf.compute = sim.Cycle(in.ComputeCycles)
	// The coalescer issues up to CoalescerWidth line requests per
	// cycle; wider instructions spread over successive cycles. Each
	// access becomes one pooled transaction, acquired here so even the
	// coalescer queue is visible in the in-flight table.
	for i, a := range in.Accesses {
		k := txn.KindRead
		if a.Write {
			k = txn.KindWrite
		}
		t := cu.gpu.table.Acquire(k, now)
		t.VAddr, t.Size = a.VAddr, a.Bytes
		t.OriginGPU, t.OriginCU = cu.gpu.ID, cu.id
		t.Push(cu, cuRoleAccessDone, 0, wf)
		t.Push(cu, cuRoleIssue, 0, nil)
		t.CompleteAfter(cu.sched, now, sim.Cycle(i/cu.cfg.CoalescerWidth)+1)
	}
}

// issue attempts the access's translation; a rejection (TLB MSHRs full)
// re-arms the same role as a 4-cycle poll.
func (cu *CU) issue(t *txn.Transaction, now sim.Cycle) {
	t.Push(cu, cuRoleRouted, 0, nil)
	if cu.L1TLB.Translate(t, now) {
		return
	}
	t.Drop()
	t.Push(cu, cuRoleIssue, 0, nil)
	t.CompleteAfter(cu.sched, now, 4)
}

// routed runs once translation resolved: compute the physical address
// and take the load or store path.
func (cu *CU) routed(t *txn.Transaction, at sim.Cycle) {
	t.PAddr = t.Base + (t.VAddr & (vm.PageBytes - 1))
	if t.Kind == txn.KindWrite {
		cu.write(t, at)
		t.Complete(at) // posted store: the wavefront does not wait
		return
	}
	cu.read(t, at)
}

// write performs a write-through store: update L1 if present, then
// deliver the line to its home partition (local call or remote packet).
// The store is posted — the access transaction completes at issue while
// the drain proceeds under its own transaction.
func (cu *CU) write(t *txn.Transaction, now sim.Cycle) {
	lineOff := int(t.PAddr % flit.LineBytes)
	cu.L1.Write(t.PAddr, cu.cfg.L1.MaskForBytes(lineOff, t.Size))
	if cu.gpu.topo.HomeGPU(t.PAddr) == cu.gpu.ID {
		cu.gpu.localWrites++
		w := cu.gpu.table.Acquire(txn.KindWrite, now)
		w.VAddr, w.PAddr, w.Size = t.VAddr, t.PAddr, t.Size
		w.OriginGPU, w.OriginCU = cu.gpu.ID, cu.id
		w.Push(cu, cuRoleLocalWriteDone, 0, nil)
		cu.gpu.Mem.WriteLine(w, t.PAddr, now)
		return
	}
	cu.gpu.RDMA.WriteRemote(t.PAddr, t.Size, now)
}

// read performs a load through the L1 with its lookup latency, MSHRs,
// and the fetch policy of the configured mode.
func (cu *CU) read(t *txn.Transaction, now sim.Cycle) {
	lineOff := int(t.PAddr % flit.LineBytes)
	if lineOff+t.Size > flit.LineBytes {
		// The coalescer emits per-line accesses; a cross-line span is a
		// generator bug and would never be fillable.
		panic(fmt.Sprintf("gpu: access at %#x spans a line boundary (%d bytes)", t.PAddr, t.Size))
	}
	t.Needed = cu.cfg.L1.MaskForBytes(lineOff, t.Size)
	t.SetState(txn.StateL1, now)
	t.Push(cu, cuRoleL1Lookup, 0, nil)
	t.CompleteAfter(cu.sched, now, cu.cfg.L1Latency)
}

func (cu *CU) l1Lookup(t *txn.Transaction, at sim.Cycle) {
	if cu.L1.Lookup(t.PAddr, t.Needed) == cache.Hit {
		t.Complete(at)
		return
	}
	lineAddr := t.PAddr / flit.LineBytes * flit.LineBytes
	switch cu.mshr.Allocate(lineAddr, t.Needed, t) {
	case cache.Merged:
		t.SetState(txn.StateMSHR, at)
		return
	case cache.Stalled:
		t.SetState(txn.StateMSHR, at)
		t.Push(cu, cuRoleMSHRRetry, lineAddr, nil)
		t.CompleteAfter(cu.sched, at, 4)
		return
	}
	cu.fetch(lineAddr, t, at)
}

// retryRead re-attempts an MSHR-stalled miss. The architectural access
// was already counted by the original lookup, so this path checks state
// without perturbing hit/miss statistics.
func (cu *CU) retryRead(lineAddr uint64, t *txn.Transaction, now sim.Cycle) {
	if cu.L1.Contains(lineAddr, t.Needed) {
		t.Complete(now) // filled while we waited
		return
	}
	switch cu.mshr.Allocate(lineAddr, t.Needed, t) {
	case cache.Merged:
		return
	case cache.Stalled:
		t.Push(cu, cuRoleMSHRRetry, lineAddr, nil)
		t.CompleteAfter(cu.sched, now, 4)
		return
	}
	cu.fetch(lineAddr, t, now)
}

// fetch services a primary L1 miss from the home partition.
func (cu *CU) fetch(lineAddr uint64, t *txn.Transaction, now sim.Cycle) {
	if cu.gpu.topo.HomeGPU(lineAddr) == cu.gpu.ID {
		t.Push(cu, cuRoleFillLocal, uint64(now), nil)
		cu.gpu.Mem.ReadLine(t, lineAddr, now)
		return
	}
	// Remote: the request carries the true byte need; in sector mode
	// the home returns exactly the needed sectors, otherwise the full
	// line goes out with trim hints for the NetCrafter controller.
	t.Push(cu, cuRoleFillRemote, uint64(now), nil)
	cu.gpu.RDMA.ReadRemote(t, now)
}

// fill installs the arrived data in the L1 and releases MSHR waiters.
func (cu *CU) fill(lineAddr uint64, trimmed bool, t *txn.Transaction, now sim.Cycle) {
	cfg := cu.cfg.L1
	var mask cache.SectorMask
	switch {
	case trimmed:
		// Only the requested sector arrived.
		mask = cfg.MaskForBytes(int(t.PAddr%flit.LineBytes), t.Size)
	case cu.cfg.FetchMode == FetchSector:
		// Sector mode fills only the needed sectors even from local
		// memory — the all-trimming policy of the comparison baseline.
		m, okM := cu.mshr.Mask(lineAddr)
		if okM {
			mask = m
		} else {
			mask = t.Needed
		}
	default:
		mask = cfg.FullMask()
	}
	if mask == 0 {
		mask = t.Needed
	}
	cu.L1.Fill(lineAddr, mask)
	waiters, _, ok := cu.mshr.Release(lineAddr)
	if !ok {
		panic("gpu: fill without MSHR entry")
	}
	for _, w := range waiters {
		if cu.L1.Contains(lineAddr, w.Needed) {
			// The primary (waiters[0]) releases itself synchronously
			// here; w is not touched again after Complete.
			w.Complete(now)
			continue
		}
		// A merged waiter needed sectors the (trimmed) fill did not
		// bring: replay its read.
		w.Push(cu, cuRoleReplay, 0, nil)
		w.CompleteAfter(cu.sched, now, 1)
	}
}
