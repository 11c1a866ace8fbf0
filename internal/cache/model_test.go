package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// This file pins the packed line layout and the slot-file MSHR to the
// straightforward implementations they replaced, kept here as
// reference models and driven by the same generated operation streams.

// refLine is the 24-byte line the packed layout replaced.
type refLine struct {
	tag    uint64
	valid  SectorMask
	dirty  bool
	lastAt uint64 // LRU stamp
}

// refCache is the cache over 24-byte lines, kept as the model.
type refCache struct {
	cfg   Config
	nSets uint64
	lines []refLine
	clock uint64
	Stats Stats
}

func newRefCache(cfg Config) *refCache {
	cfg = cfg.validate()
	nSets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	if nSets == 0 {
		nSets = 1
	}
	return &refCache{cfg: cfg, nSets: uint64(nSets)}
}

func (c *refCache) locate(addr uint64) ([]refLine, uint64) {
	lineAddr := addr / uint64(c.cfg.LineBytes)
	if c.lines == nil {
		return nil, lineAddr
	}
	w := uint64(c.cfg.Ways)
	i := lineAddr % c.nSets * w
	return c.lines[i : i+w : i+w], lineAddr
}

func (c *refCache) Lookup(addr uint64, needed SectorMask) Result {
	c.Stats.Accesses.Inc()
	c.clock++
	set, tag := c.locate(addr)
	for i := range set {
		l := &set[i]
		if l.valid != 0 && l.tag == tag {
			if l.valid&needed == needed {
				l.lastAt = c.clock
				c.Stats.Hits.Inc()
				return Hit
			}
			c.Stats.SectorMisses.Inc()
			return SectorMiss
		}
	}
	c.Stats.Misses.Inc()
	return Miss
}

func (c *refCache) Contains(addr uint64, needed SectorMask) bool {
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].valid != 0 && set[i].tag == tag {
			return set[i].valid&needed == needed
		}
	}
	return false
}

func (c *refCache) Fill(addr uint64, mask SectorMask) (Eviction, bool) {
	c.clock++
	if c.lines == nil {
		c.lines = make([]refLine, c.nSets*uint64(c.cfg.Ways))
	}
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].valid != 0 && set[i].tag == tag {
			set[i].valid |= mask
			set[i].lastAt = c.clock
			return Eviction{}, false
		}
	}
	victim := -1
	for i := range set {
		if set[i].valid == 0 {
			victim = i
			break
		}
	}
	var ev Eviction
	evicted := false
	if victim < 0 {
		victim = 0
		for i := range set {
			if set[i].lastAt < set[victim].lastAt {
				victim = i
			}
		}
		ev = Eviction{LineAddr: set[victim].tag * uint64(c.cfg.LineBytes), Dirty: set[victim].dirty}
		evicted = true
	}
	set[victim] = refLine{tag: tag, valid: mask, lastAt: c.clock}
	return ev, evicted
}

func (c *refCache) Write(addr uint64, mask SectorMask) bool {
	c.clock++
	set, tag := c.locate(addr)
	for i := range set {
		l := &set[i]
		if l.valid != 0 && l.tag == tag {
			l.valid |= mask
			l.lastAt = c.clock
			if c.cfg.WriteBack {
				l.dirty = true
			}
			return true
		}
	}
	return false
}

func (c *refCache) Invalidate(addr uint64) bool {
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].valid != 0 && set[i].tag == tag {
			set[i] = refLine{}
			return true
		}
	}
	return false
}

func (c *refCache) InvalidateAll() {
	for i := range c.lines {
		c.lines[i] = refLine{}
	}
}

// sameLines reports whether every way of the packed cache holds what
// the model's way holds: tag, sectors, dirty bit and LRU stamp.
func sameLines(t *testing.T, c *Cache, m *refCache) {
	t.Helper()
	if len(c.lines) != len(m.lines) {
		t.Fatalf("%d lines allocated, model %d", len(c.lines), len(m.lines))
	}
	for i := range c.lines {
		l, r := &c.lines[i], m.lines[i]
		if l.valid() != r.valid {
			t.Fatalf("way %d sectors %04b, model %04b", i, l.valid(), r.valid)
		}
		if r.valid == 0 {
			continue
		}
		if l.tag != r.tag || l.dirty() != r.dirty || l.stamp() != r.lastAt {
			t.Fatalf("way %d = tag %#x dirty %v stamp %d, model tag %#x dirty %v stamp %d",
				i, l.tag, l.dirty(), l.stamp(), r.tag, r.dirty, r.lastAt)
		}
	}
}

// TestPackedLinesMatchModel drives the packed cache and the 24-byte
// model with the same random Fill/Lookup/Write/Contains/Invalidate/
// InvalidateAll streams on the L1 and L2 geometries, in both write
// policies, and compares every result and eviction (with its dirty
// bit) and the statistics after each operation, and every way at the
// end.
func TestPackedLinesMatchModel(t *testing.T) {
	l1wb := L1Config()
	l1wb.WriteBack = true
	l2wt := L2BankConfig()
	l2wt.WriteBack = false
	for _, cfg := range []Config{L1Config(), L2BankConfig(), l1wb, l2wt, tiny()} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c, m := New(cfg), newRefCache(cfg)
			nSets := uint64(cfg.SizeBytes / cfg.LineBytes / cfg.Ways)
			full := cfg.FullMask()
			// A few sets, each with more candidate lines than ways, so
			// streams hit, miss, merge sectors and evict.
			addr := func() uint64 {
				set := uint64(rng.Intn(3))
				tag := uint64(rng.Intn(cfg.Ways*2 + 2))
				return (tag*nSets+set)*uint64(cfg.LineBytes) + uint64(rng.Intn(cfg.LineBytes))
			}
			mask := func() SectorMask { return SectorMask(rng.Intn(int(full))) + 1 }
			for op := 0; op < 4000; op++ {
				a := addr()
				switch r := rng.Intn(100); {
				case r < 30:
					k := mask()
					ev, ok := c.Fill(a, k)
					wantEv, wantOK := m.Fill(a, k)
					if ev != wantEv || ok != wantOK {
						t.Fatalf("%+v seed %d op %d: Fill(%#x,%04b) = %+v,%v, model %+v,%v",
							cfg, seed, op, a, k, ev, ok, wantEv, wantOK)
					}
				case r < 65:
					k := mask()
					if got, want := c.Lookup(a, k), m.Lookup(a, k); got != want {
						t.Fatalf("%+v seed %d op %d: Lookup(%#x,%04b) = %v, model %v", cfg, seed, op, a, k, got, want)
					}
				case r < 85:
					k := mask()
					if got, want := c.Write(a, k), m.Write(a, k); got != want {
						t.Fatalf("%+v seed %d op %d: Write(%#x) = %v, model %v", cfg, seed, op, a, got, want)
					}
				case r < 95:
					k := mask()
					if got, want := c.Contains(a, k), m.Contains(a, k); got != want {
						t.Fatalf("%+v seed %d op %d: Contains(%#x) = %v, model %v", cfg, seed, op, a, got, want)
					}
				case r < 99:
					if got, want := c.Invalidate(a), m.Invalidate(a); got != want {
						t.Fatalf("%+v seed %d op %d: Invalidate(%#x) = %v, model %v", cfg, seed, op, a, got, want)
					}
				default:
					c.InvalidateAll()
					m.InvalidateAll()
				}
				if c.Stats != m.Stats || c.clock != m.clock {
					t.Fatalf("%+v seed %d op %d: stats %+v clock %d, model %+v clock %d",
						cfg, seed, op, c.Stats, c.clock, m.Stats, m.clock)
				}
			}
			sameLines(t, c, m)
		}
	}
}

// TestCacheClockPanicsAtLimit pins the clock limit: the LRU stamp has
// 47 bits, and the access that would need a 48th panics instead of
// wrapping.
func TestCacheClockPanicsAtLimit(t *testing.T) {
	c := New(tiny())
	full := c.Config().FullMask()
	c.clock = clockLimit - 4
	c.Fill(0, full)    // stamp limit-3
	c.Fill(8*64, full) // same set, stamp limit-2
	// The largest stamp a line can hold survives the packing.
	if c.Lookup(0, full) != Hit || c.lines[0].stamp() != clockLimit-1 {
		t.Fatalf("lookup below the limit: stamp %d, want %d", c.lines[0].stamp(), uint64(clockLimit-1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("clock passed 2^47 without a panic")
		}
	}()
	c.Write(0, full)
}

// refMSHR is the map-based MSHR the slot file replaced.
type refMSHR struct {
	entries map[uint64]*refEntry
	max     int
}

type refEntry struct {
	waiters []int
	mask    SectorMask
}

func (m *refMSHR) Allocate(line uint64, mask SectorMask, w int) Outcome {
	if e, ok := m.entries[line]; ok {
		e.waiters = append(e.waiters, w)
		e.mask |= mask
		return Merged
	}
	if len(m.entries) >= m.max {
		return Stalled
	}
	m.entries[line] = &refEntry{waiters: []int{w}, mask: mask}
	return Primary
}

func (m *refMSHR) Release(line uint64) ([]int, SectorMask, bool) {
	e, ok := m.entries[line]
	if !ok {
		return nil, 0, false
	}
	delete(m.entries, line)
	return e.waiters, e.mask, true
}

// TestMSHRMatchesModel drives the slot file and the map-based model
// with random Allocate/Release/Mask/Pending/Full/Len sequences at
// several file sizes, comparing outcomes, waiter order, merged masks
// and Stalled at capacity. It also pins the lifetime of the slice
// Release returns: intact until the next primary miss.
func TestMSHRMatchesModel(t *testing.T) {
	for _, size := range []int{1, 2, 4, 32, 64} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(size)))
			m := NewMSHR[int](size)
			ref := &refMSHR{entries: map[uint64]*refEntry{}, max: size}
			lines := uint64(size + size/2 + 2) // more lines than entries
			var held, heldCopy []int
			waiter := 0
			for op := 0; op < 3000; op++ {
				line := uint64(rng.Int63n(int64(lines))) * 64
				switch r := rng.Intn(100); {
				case r < 55:
					waiter++
					k := SectorMask(rng.Intn(15) + 1)
					got, want := m.Allocate(line, k, waiter), ref.Allocate(line, k, waiter)
					if got != want {
						t.Fatalf("size %d seed %d op %d: Allocate(%#x) = %v, model %v", size, seed, op, line, got, want)
					}
					if want == Stalled && len(ref.entries) != size {
						t.Fatalf("size %d: model stalled below capacity", size)
					}
					if got == Primary {
						held = nil // the released slices' storage may now be reused
					}
				case r < 85:
					ws, k, ok := m.Release(line)
					wws, wk, wok := ref.Release(line)
					if ok != wok || k != wk || !slices.Equal(ws, wws) {
						t.Fatalf("size %d seed %d op %d: Release(%#x) = %v,%04b,%v, model %v,%04b,%v",
							size, seed, op, line, ws, k, ok, wws, wk, wok)
					}
					if ok && held == nil {
						held, heldCopy = ws, slices.Clone(ws)
					}
				case r < 90:
					k, ok := m.Mask(line)
					var wk SectorMask
					e, wok := ref.entries[line]
					if wok {
						wk = e.mask
					}
					if k != wk || ok != wok {
						t.Fatalf("size %d seed %d op %d: Mask(%#x) = %04b,%v, model %04b,%v", size, seed, op, line, k, ok, wk, wok)
					}
				default:
					_, wok := ref.entries[line]
					if m.Pending(line) != wok {
						t.Fatalf("size %d seed %d op %d: Pending(%#x) = %v, model %v", size, seed, op, line, !wok, wok)
					}
				}
				if m.Len() != len(ref.entries) || m.Full() != (len(ref.entries) >= size) {
					t.Fatalf("size %d seed %d op %d: Len %d Full %v, model %d entries", size, seed, op, m.Len(), m.Full(), len(ref.entries))
				}
				if held != nil && !slices.Equal(held, heldCopy) {
					t.Fatalf("size %d seed %d op %d: released waiters changed before the next primary miss: %v, was %v",
						size, seed, op, held, heldCopy)
				}
			}
		}
	}
}

// TestMSHRNoAllocs pins the slot file's steady state: once the file
// and its waiter slices have grown, a primary miss, a merge, a release
// and the reuse of the released slot allocate nothing.
func TestMSHRNoAllocs(t *testing.T) {
	m := NewMSHR[*int](4)
	a, b := new(int), new(int)
	cycle := func() {
		m.Allocate(0x40, 1, a) // primary
		m.Allocate(0x80, 1, a) // primary
		m.Allocate(0x40, 2, b) // merge
		m.Allocate(0x40, 4, b) // merge
		m.Release(0x40)
		m.Allocate(0xc0, 1, a) // primary reusing the released slot
		m.Release(0x80)
		m.Release(0xc0)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("MSHR primary/merge/release/reuse allocated %.1f times per run, want 0", n)
	}
}
