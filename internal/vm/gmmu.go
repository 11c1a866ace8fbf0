package vm

import (
	"netcrafter/internal/obs"
	"netcrafter/internal/sim"
	"netcrafter/internal/stats"
	"netcrafter/internal/txn"
)

// PTEReader performs the memory accesses of a page table walk. The GPU
// layer implements it: local PTEs go through the local L2/DRAM, remote
// PTEs become PTReq/PTRsp packets over the inter-GPU network.
type PTEReader interface {
	// ReadPTE reads the 8-byte entry at addr on behalf of t, which
	// completes exactly once when the data is available. It always
	// accepts the request.
	ReadPTE(t *txn.Transaction, addr uint64, now sim.Cycle)
}

// GMMUConfig describes the GPU memory management unit (Table 2:
// 16 shared walkers, 32-entry fully associative PWC, 10-cycle lookup).
type GMMUConfig struct {
	Walkers    int
	PWCEntries int
	PWCLatency sim.Cycle
}

// DefaultGMMUConfig returns the paper's GMMU parameters.
func DefaultGMMUConfig() GMMUConfig {
	return GMMUConfig{Walkers: 16, PWCEntries: 32, PWCLatency: 10}
}

// GMMUStats counts walker activity.
type GMMUStats struct {
	Walks   stats.Counter
	PWCHits stats.Counter // levels skipped thanks to the PWC
}

// pwc is the page walk cache: a small fully-associative cache over
// upper-level page table prefixes. A hit at depth d lets the walker
// skip the first d+1 accesses.
type pwc struct {
	entries map[pwcKey]uint64 // prefix -> node address of NEXT level
	order   []pwcKey          // FIFO-ish LRU approximation
	max     int
	tickVal uint64
	last    map[pwcKey]uint64
}

type pwcKey struct {
	level  int // level of the node whose address is cached (1..3)
	prefix uint64
}

func newPWC(entries int) *pwc {
	return &pwc{
		entries: make(map[pwcKey]uint64),
		last:    make(map[pwcKey]uint64),
		max:     entries,
	}
}

func (p *pwc) insert(k pwcKey, nodeAddr uint64) {
	p.tickVal++
	if _, ok := p.entries[k]; !ok && len(p.entries) >= p.max {
		// Evict the least recently used key.
		var victim pwcKey
		var oldest uint64 = ^uint64(0)
		for key := range p.entries {
			if p.last[key] < oldest {
				oldest = p.last[key]
				victim = key
			}
		}
		delete(p.entries, victim)
		delete(p.last, victim)
	}
	p.entries[k] = nodeAddr
	p.last[k] = p.tickVal
}

func (p *pwc) lookup(k pwcKey) (uint64, bool) {
	v, ok := p.entries[k]
	if ok {
		p.tickVal++
		p.last[k] = p.tickVal
	}
	return v, ok
}

// prefixOf returns the VPN prefix identifying the node at the given
// level (level 1 = child of root).
func prefixOf(vpn uint64, level int) uint64 {
	return vpn >> uint(BitsPerLevel*(Levels-level))
}

// GMMU performs page table walks with a bounded pool of parallel
// walkers, accelerated by the page walk cache. It implements
// Translator so the L2 TLB can sit directly on top of it.
type GMMU struct {
	Name  string
	cfg   GMMUConfig
	pt    *PageTable
	pwc   *pwc
	mem   PTEReader
	sched *sim.Scheduler
	Stats GMMUStats
	// ObsWalkLat, when non-nil, records each walk's start-to-finish
	// latency into the metrics registry; nil costs nothing.
	ObsWalkLat *obs.Hist

	active  int
	waiting []*walkReq
	// freeReqs recycles per-walk state; walks are bounded by the walker
	// pool plus the queue, so the free list stays small.
	freeReqs *walkReq
}

// walkReq is the per-walk state: the transaction plus the walk plan
// and the serial-step cursor, referenced from the transaction's frames
// via Ref. The plan lives inline, so a recycled walkReq walks without
// allocating.
type walkReq struct {
	vpn   uint64
	t     *txn.Transaction
	steps [Levels]WalkStep
	idx   int
	base  uint64
	start sim.Cycle
	next  *walkReq
}

// NewGMMU creates a GMMU over the given page table and PTE reader.
func NewGMMU(name string, cfg GMMUConfig, pt *PageTable, mem PTEReader, sched *sim.Scheduler) *GMMU {
	if cfg.Walkers <= 0 {
		panic("vm: GMMU needs at least one walker")
	}
	return &GMMU{
		Name:  name,
		cfg:   cfg,
		pt:    pt,
		pwc:   newPWC(cfg.PWCEntries),
		mem:   mem,
		sched: sched,
	}
}

// Continuation roles a GMMU parks on a walk's primary transaction; Ref
// is always the *walkReq.
const (
	// gmmuRolePWC — the PWC probe latency elapsed; plan the walk.
	gmmuRolePWC uint16 = iota
	// gmmuRoleStep — one serial PTE read finished; advance the cursor.
	gmmuRoleStep
)

// Translate implements Translator. Requests beyond the walker pool are
// queued internally, so it always accepts. Every request is a walk of
// its own: the GMMU does not merge duplicate VPNs, because its one
// caller, the L2 TLB, already sends one walk per VPN through its MSHRs.
func (g *GMMU) Translate(tr *txn.Transaction, now sim.Cycle) bool {
	req := g.newWalkReq(VPN(tr.VAddr), tr)
	if g.active >= g.cfg.Walkers {
		g.waiting = append(g.waiting, req)
		return true
	}
	g.startWalk(req, now)
	return true
}

func (g *GMMU) newWalkReq(vpn uint64, tr *txn.Transaction) *walkReq {
	req := g.freeReqs
	if req == nil {
		req = &walkReq{}
	} else {
		g.freeReqs = req.next
	}
	*req = walkReq{vpn: vpn, t: tr}
	return req
}

func (g *GMMU) startWalk(req *walkReq, now sim.Cycle) {
	g.active++
	g.Stats.Walks.Inc()
	req.start = now
	// PWC probe costs its lookup latency, then the remaining levels
	// are read from memory serially.
	req.t.Push(g, gmmuRolePWC, 0, req)
	req.t.CompleteAfter(g.sched, now, g.cfg.PWCLatency)
}

// OnComplete implements txn.Handler.
func (g *GMMU) OnComplete(tr *txn.Transaction, f txn.Frame, at sim.Cycle) {
	req := f.Ref.(*walkReq)
	switch f.Role {
	case gmmuRolePWC:
		g.planWalk(req, at)
	case gmmuRoleStep:
		req.idx++
		g.runSteps(req, at)
	}
}

func (g *GMMU) planWalk(req *walkReq, now sim.Cycle) {
	base, ok := g.pt.Walk(req.vpn, &req.steps)
	if !ok {
		panic("vm: page fault — walk of unmapped VPN (loader must premap)")
	}
	// Longest cached prefix: if the node of level L is cached we can
	// start the walk at level L (skipping reads of levels 0..L-1).
	first := 0
	for level := Levels - 1; level >= 1; level-- {
		if _, hit := g.pwc.lookup(pwcKey{level: level, prefix: prefixOf(req.vpn, level)}); hit {
			first = level
			break
		}
	}
	g.Stats.PWCHits.Add(int64(first))
	req.base, req.idx = base, first
	g.runSteps(req, now)
}

// runSteps issues the PTE reads of steps[idx:] serially, then completes
// the walk.
func (g *GMMU) runSteps(req *walkReq, now sim.Cycle) {
	if req.idx >= len(req.steps) {
		g.finishWalk(req, now)
		return
	}
	req.t.Push(g, gmmuRoleStep, 0, req)
	g.mem.ReadPTE(req.t, req.steps[req.idx].Addr, now)
}

func (g *GMMU) finishWalk(req *walkReq, now sim.Cycle) {
	// Install discovered node addresses into the PWC (levels 1..3).
	for _, st := range req.steps[1:] {
		g.pwc.insert(pwcKey{level: st.Level, prefix: prefixOf(req.vpn, st.Level)}, st.NodeAddr)
	}
	g.ObsWalkLat.Observe(float64(now - req.start))
	tr, base := req.t, req.base
	*req = walkReq{next: g.freeReqs}
	g.freeReqs = req
	tr.Base = base
	tr.Complete(now)
	g.active--
	if len(g.waiting) > 0 {
		next := g.waiting[0]
		g.waiting = g.waiting[1:]
		g.startWalk(next, now)
	}
}

// ActiveWalks returns the number of walks currently using a walker.
func (g *GMMU) ActiveWalks() int { return g.active }

// QueuedWalks returns the number of walks waiting for a free walker.
func (g *GMMU) QueuedWalks() int { return len(g.waiting) }
