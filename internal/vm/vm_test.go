package vm

import (
	"testing"
	"testing/quick"

	"netcrafter/internal/sim"
	"netcrafter/internal/txn"
)

// bumpAlloc hands out frames per GPU from disjoint ranges so tests can
// recover the owning GPU from an address.
type bumpAlloc struct{ next [8]uint64 }

const gpuSpan = uint64(1) << 40

func (a *bumpAlloc) AllocFrame(gpu int) uint64 {
	addr := uint64(gpu)*gpuSpan + a.next[gpu]
	a.next[gpu] += PageBytes
	return addr
}

func gpuOf(addr uint64) int { return int(addr / gpuSpan) }

func TestMapAndTranslate(t *testing.T) {
	pt := NewPageTable(&bumpAlloc{})
	pt.Map(0x1234, 0xabc000, 0)
	pa, ok := pt.Translate(0x1234<<PageShift | 0x567)
	if !ok || pa != 0xabc000+0x567 {
		t.Fatalf("Translate = %#x,%v", pa, ok)
	}
	if _, ok := pt.Translate(0x9999 << PageShift); ok {
		t.Fatal("translated unmapped address")
	}
	if pt.Pages != 1 {
		t.Fatalf("Pages = %d", pt.Pages)
	}
}

func TestDoubleMapPanics(t *testing.T) {
	pt := NewPageTable(&bumpAlloc{})
	pt.Map(5, 0x1000, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("double map did not panic")
		}
	}()
	pt.Map(5, 0x2000, 0)
}

func TestWalkProducesFourSteps(t *testing.T) {
	pt := NewPageTable(&bumpAlloc{})
	pt.Map(42, 0x1000, 0)
	var steps [Levels]WalkStep
	base, ok := pt.Walk(42, &steps)
	if !ok || base != 0x1000 {
		t.Fatalf("walk failed: %v %#x", ok, base)
	}
	for i, s := range steps {
		if s.Level != i {
			t.Fatalf("step %d has level %d", i, s.Level)
		}
		if s.Addr < s.NodeAddr || s.Addr >= s.NodeAddr+PageBytes {
			t.Fatalf("step %d PTE address %#x outside its node %#x", i, s.Addr, s.NodeAddr)
		}
	}
}

// TestPTECoLocation verifies the paper's placement rule: the leaf PTE
// page of a 2MB region lives on the GPU of the region's first data
// page, even when later pages of the region live elsewhere.
func TestPTECoLocation(t *testing.T) {
	pt := NewPageTable(&bumpAlloc{})
	region := uint64(7) << BitsPerLevel // VPNs [7*512, 8*512)
	pt.Map(region+0, 2*gpuSpan+0x1000, 2)
	pt.Map(region+1, 3*gpuSpan+0x2000, 3) // different GPU, same region
	leaf, ok := pt.LeafNodeAddr(region + 1)
	if !ok {
		t.Fatal("leaf missing")
	}
	if gpuOf(leaf) != 2 {
		t.Fatalf("leaf PTE page on GPU %d, want 2 (first page's GPU)", gpuOf(leaf))
	}
}

// Property: translate(map(v)) round-trips for arbitrary distinct VPNs.
func TestPageTableRoundTripProperty(t *testing.T) {
	f := func(vpns []uint32) bool {
		pt := NewPageTable(&bumpAlloc{})
		want := map[uint64]uint64{}
		for i, v := range vpns {
			vpn := uint64(v)
			if _, dup := want[vpn]; dup {
				continue
			}
			pa := uint64(i+1) << PageShift
			pt.Map(vpn, pa, int(vpn%4))
			want[vpn] = pa
		}
		for vpn, pa := range want {
			got, ok := pt.Translate(vpn << PageShift)
			if !ok || got != pa {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// transReq acquires a transaction carrying a translation request for
// vpn; its bottom frame runs done with the resolved base and releases
// the transaction — the shape every Translator caller uses.
func transReq(tb *txn.Table, vpn uint64, done func(base uint64, at sim.Cycle)) *txn.Transaction {
	t := tb.Acquire(txn.KindRead, 0)
	t.VAddr = vpn << PageShift
	t.Push(txn.HandlerFunc(func(t *txn.Transaction, _ txn.Frame, at sim.Cycle) {
		if done != nil {
			done(t.Base, at)
		}
		t.Release()
	}), 0, 0, nil)
	return t
}

// fakeMem services PTE reads after a fixed delay and records them.
type fakeMem struct {
	sched *sim.Scheduler
	delay sim.Cycle
	reads []uint64
}

func (m *fakeMem) ReadPTE(t *txn.Transaction, addr uint64, now sim.Cycle) {
	m.reads = append(m.reads, addr)
	t.CompleteAfter(m.sched, now, m.delay)
}

func gmmuRig(cfg GMMUConfig, memDelay sim.Cycle) (*sim.Engine, *GMMU, *fakeMem, *PageTable, *txn.Table) {
	e := sim.NewEngine()
	sched := sim.NewScheduler()
	e.Register("sched", sched)
	pt := NewPageTable(&bumpAlloc{})
	mem := &fakeMem{sched: sched, delay: memDelay}
	g := NewGMMU("gmmu", cfg, pt, mem, sched)
	return e, g, mem, pt, txn.NewTable("test")
}

func TestGMMUWalkTiming(t *testing.T) {
	e, g, mem, pt, tb := gmmuRig(DefaultGMMUConfig(), 50)
	pt.Map(0x100, 0x7000, 0)
	var at sim.Cycle = -1
	var got uint64
	g.Translate(transReq(tb, 0x100, func(base uint64, now sim.Cycle) { got, at = base, now }), 0)
	if _, err := e.RunUntil(func() bool { return at >= 0 }, 10000); err != nil {
		t.Fatal(err)
	}
	if tb.Live() != 0 {
		t.Fatal("transaction leaked")
	}
	if got != 0x7000 {
		t.Fatalf("walk returned %#x", got)
	}
	// Cold walk: PWC latency (10) + 4 memory reads x 50 = ~210.
	if at < 200 || at > 260 {
		t.Fatalf("cold walk finished at %d, want ~210", at)
	}
	if len(mem.reads) != 4 {
		t.Fatalf("cold walk issued %d reads, want 4", len(mem.reads))
	}
}

func TestPWCSkipsUpperLevels(t *testing.T) {
	e, g, mem, pt, tb := gmmuRig(DefaultGMMUConfig(), 50)
	// Two VPNs in the same 2MB region share levels 0..2.
	pt.Map(0x200, 0x1000, 0)
	pt.Map(0x201, 0x2000, 0)
	done := 0
	g.Translate(transReq(tb, 0x200, func(uint64, sim.Cycle) { done++ }), 0)
	if _, err := e.RunUntil(func() bool { return done == 1 }, 10000); err != nil {
		t.Fatal(err)
	}
	before := len(mem.reads)
	g.Translate(transReq(tb, 0x201, func(uint64, sim.Cycle) { done++ }), e.Now())
	if _, err := e.RunUntil(func() bool { return done == 2 }, 10000); err != nil {
		t.Fatal(err)
	}
	if got := len(mem.reads) - before; got != 1 {
		t.Fatalf("warm walk issued %d reads, want 1 (PWC should cover 3 levels)", got)
	}
	if g.Stats.PWCHits.Value() == 0 {
		t.Fatal("PWC hits not counted")
	}
}

func TestGMMUWalkerPoolLimit(t *testing.T) {
	cfg := DefaultGMMUConfig()
	cfg.Walkers = 2
	e, g, _, pt, tb := gmmuRig(cfg, 100)
	// Use distinct 2MB regions so the PWC cannot help.
	for i := 0; i < 6; i++ {
		pt.Map(uint64(i)<<BitsPerLevel<<BitsPerLevel, uint64(i+1)<<PageShift, 0)
	}
	done := 0
	for i := 0; i < 6; i++ {
		g.Translate(transReq(tb, uint64(i)<<BitsPerLevel<<BitsPerLevel, func(uint64, sim.Cycle) { done++ }), 0)
	}
	e.Step()
	if g.ActiveWalks() != 2 || g.QueuedWalks() != 4 {
		t.Fatalf("active=%d queued=%d, want 2/4", g.ActiveWalks(), g.QueuedWalks())
	}
	if _, err := e.RunUntil(func() bool { return done == 6 }, 100000); err != nil {
		t.Fatal(err)
	}
	if g.ActiveWalks() != 0 || g.QueuedWalks() != 0 {
		t.Fatal("walker pool not drained")
	}
}

// chainBelow is a Translator answering after a fixed delay.
type chainBelow struct {
	sched *sim.Scheduler
	delay sim.Cycle
	calls int
}

func (c *chainBelow) Translate(t *txn.Transaction, now sim.Cycle) bool {
	c.calls++
	c.sched.After(now, c.delay, func(at sim.Cycle) {
		t.Base = VPN(t.VAddr) * PageBytes
		t.Complete(at)
	})
	return true
}

func TestTLBHitAndMissPath(t *testing.T) {
	e := sim.NewEngine()
	sched := sim.NewScheduler()
	e.Register("sched", sched)
	below := &chainBelow{sched: sched, delay: 100}
	tlb := NewTLB("l1tlb", L1TLBConfig(), below, sched)
	tb := txn.NewTable("test")

	var firstAt, secondAt sim.Cycle = -1, -1
	tlb.Translate(transReq(tb, 7, func(base uint64, at sim.Cycle) {
		if base != 7*PageBytes {
			t.Errorf("bad translation %#x", base)
		}
		firstAt = at
	}), 0)
	if _, err := e.RunUntil(func() bool { return firstAt >= 0 }, 10000); err != nil {
		t.Fatal(err)
	}
	if firstAt < 100 {
		t.Fatalf("miss completed at %d, too fast", firstAt)
	}
	start := e.Now()
	tlb.Translate(transReq(tb, 7, func(_ uint64, at sim.Cycle) { secondAt = at }), e.Now())
	if _, err := e.RunUntil(func() bool { return secondAt >= 0 }, 10000); err != nil {
		t.Fatal(err)
	}
	if tb.Live() != 0 {
		t.Fatal("transactions leaked")
	}
	if secondAt-start > 5 {
		t.Fatalf("hit took %d cycles, want ~1", secondAt-start)
	}
	if below.calls != 1 {
		t.Fatalf("below called %d times, want 1", below.calls)
	}
	if tlb.HitRate() != 0.5 {
		t.Fatalf("hit rate = %f", tlb.HitRate())
	}
}

func TestTLBMergesMisses(t *testing.T) {
	e := sim.NewEngine()
	sched := sim.NewScheduler()
	e.Register("sched", sched)
	below := &chainBelow{sched: sched, delay: 200}
	tlb := NewTLB("tlb", L1TLBConfig(), below, sched)
	tb := txn.NewTable("test")
	done := 0
	for i := 0; i < 4; i++ {
		tlb.Translate(transReq(tb, 9, func(uint64, sim.Cycle) { done++ }), 0)
	}
	if _, err := e.RunUntil(func() bool { return done == 4 }, 10000); err != nil {
		t.Fatal(err)
	}
	if below.calls != 1 {
		t.Fatalf("below called %d times for merged misses", below.calls)
	}
}

func TestTLBEvictionLRU(t *testing.T) {
	arr := newTLBArray(4, 4) // fully associative, 4 entries
	for v := uint64(0); v < 4; v++ {
		arr.insert(v, v*PageBytes)
	}
	arr.lookup(0) // refresh 0
	arr.insert(9, 9*PageBytes)
	if _, ok := arr.lookup(1); ok {
		t.Fatal("LRU entry survived")
	}
	if _, ok := arr.lookup(0); !ok {
		t.Fatal("MRU entry evicted")
	}
	arr.invalidateAll()
	if _, ok := arr.lookup(0); ok {
		t.Fatal("entry survived invalidateAll")
	}
}

func TestTLBStallWhenMSHRFull(t *testing.T) {
	e := sim.NewEngine()
	sched := sim.NewScheduler()
	e.Register("sched", sched)
	below := &chainBelow{sched: sched, delay: 10000} // never completes in window
	cfg := L1TLBConfig()
	cfg.MSHRs = 2
	tlb := NewTLB("tlb", cfg, below, sched)
	tb := txn.NewTable("test")
	if !tlb.Translate(transReq(tb, 1, nil), 0) {
		t.Fatal("first miss rejected")
	}
	if !tlb.Translate(transReq(tb, 2, nil), 0) {
		t.Fatal("second miss rejected")
	}
	e.Run(50) // let both misses allocate
	if tlb.Translate(transReq(tb, 3, nil), e.Now()) {
		t.Fatal("third distinct miss accepted with full MSHRs")
	}
	if !tlb.Translate(transReq(tb, 1, nil), e.Now()) {
		t.Fatal("mergeable miss rejected")
	}
	if tlb.Stats.Stalls.Value() == 0 {
		t.Fatal("stall not counted")
	}
}

// TestUnfilledTLBMatchesEmpty pins storage at first fill for the TLB
// array: before the first insert it holds no entries, every lookup
// misses as in an allocated empty array, and invalidation keeps it
// unallocated.
func TestUnfilledTLBMatchesEmpty(t *testing.T) {
	for _, cfg := range []TLBConfig{L1TLBConfig(), L2TLBConfig()} {
		lazy, empty := newTLBArray(cfg.Entries, cfg.Ways), newTLBArray(cfg.Entries, cfg.Ways)
		empty.entries = make([]tlbEntry, cfg.Entries)
		for vpn := uint64(0); vpn < 3*uint64(cfg.Entries); vpn += 7 {
			lb, lok := lazy.lookup(vpn)
			eb, eok := empty.lookup(vpn)
			if lb != eb || lok != eok {
				t.Fatalf("lookup(%d) = %d,%v unfilled, %d,%v empty", vpn, lb, lok, eb, eok)
			}
		}
		lazy.invalidateAll()
		if lazy.entries != nil || lazy.tick != empty.tick {
			t.Fatalf("unfilled array: %d entries, tick %d (empty tick %d)", len(lazy.entries), lazy.tick, empty.tick)
		}
		lazy.insert(5, 0x5000)
		if len(lazy.entries) != cfg.Entries {
			t.Fatalf("first insert allocated %d entries, want %d", len(lazy.entries), cfg.Entries)
		}
		if base, ok := lazy.lookup(5); !ok || base != 0x5000 {
			t.Fatalf("lookup after first insert = %#x,%v", base, ok)
		}
	}
}

// TestPageWalkNoAllocs pins the walk path: PageTable.Walk fills the
// caller's step array, and a whole GMMU walk (PWC probe, serial PTE
// reads, completion) allocates nothing once the walk state, the
// scheduler and the transaction pool have warmed up.
func TestPageWalkNoAllocs(t *testing.T) {
	e, g, mem, pt, tb := gmmuRig(DefaultGMMUConfig(), 50)
	pt.Map(0x100, 0x7000, 0)
	pt.Map(5<<(2*BitsPerLevel), 0x8000, 0) // a second VPN in another 2MB region
	var steps [Levels]WalkStep
	if n := testing.AllocsPerRun(100, func() { pt.Walk(0x100, &steps) }); n != 0 {
		t.Fatalf("PageTable.Walk allocated %.1f times per walk, want 0", n)
	}
	finished := 0
	done := txn.HandlerFunc(func(tr *txn.Transaction, _ txn.Frame, _ sim.Cycle) {
		finished++
		tr.Release()
	})
	idle := func() bool { return finished == 2 }
	walk := func() {
		finished = 0
		mem.reads = mem.reads[:0]
		for _, vpn := range []uint64{0x100, 5 << (2 * BitsPerLevel)} {
			tr := tb.Acquire(txn.KindRead, e.Now())
			tr.VAddr = vpn << PageShift
			tr.Push(done, 0, 0, nil)
			g.Translate(tr, e.Now())
		}
		if _, err := e.RunUntil(idle, e.Now()+100_000); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ { // past the scheduler's first 256 cycles
		walk()
	}
	if n := testing.AllocsPerRun(100, walk); n != 0 {
		t.Fatalf("a GMMU walk allocated %.1f times, want 0", n)
	}
	if len(mem.reads) == 0 || g.Stats.Walks.Value() < 2*401 {
		t.Fatalf("walks = %d, last reads %d: the pin measured no walk", g.Stats.Walks.Value(), len(mem.reads))
	}
}
