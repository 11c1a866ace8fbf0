// Package cache implements the set-associative caches of the GPU memory
// hierarchy: the per-CU write-through L1 vector cache (with per-sector
// valid bits so trimmed fills can coexist with full-line fills) and the
// banked write-back L2. The structures here are pure state machines;
// timing (lookup latency, miss handling) is imposed by the components in
// package gpu that own them.
package cache

import (
	"fmt"

	"netcrafter/internal/stats"
)

// SectorMask marks which sectors of a line are valid/needed. Bit i
// covers bytes [i*SectorBytes, (i+1)*SectorBytes).
type SectorMask uint16

// Config describes one cache structure.
type Config struct {
	SizeBytes   int
	Ways        int
	LineBytes   int
	SectorBytes int // == LineBytes for a non-sectored cache
	WriteBack   bool
	MSHRs       int
}

// L1Config returns the paper's per-CU L1 vector cache: 64KB, 4-way,
// write-through, 64B lines with 16B sectors, 32 MSHRs.
func L1Config() Config {
	return Config{SizeBytes: 64 << 10, Ways: 4, LineBytes: 64, SectorBytes: 16, WriteBack: false, MSHRs: 32}
}

// L2BankConfig returns one bank of the paper's per-GPU L2: 4MB/16 banks
// = 256KB per bank, 16-way, write-back, 64 MSHRs per bank.
func L2BankConfig() Config {
	return Config{SizeBytes: 256 << 10, Ways: 16, LineBytes: 64, SectorBytes: 64, WriteBack: true, MSHRs: 64}
}

func (c Config) validate() Config {
	if c.LineBytes <= 0 {
		panic("cache: LineBytes must be positive")
	}
	if c.SectorBytes <= 0 {
		c.SectorBytes = c.LineBytes
	}
	if c.LineBytes%c.SectorBytes != 0 {
		panic("cache: LineBytes must be a multiple of SectorBytes")
	}
	if c.LineBytes/c.SectorBytes > 16 {
		panic("cache: more than 16 sectors per line unsupported")
	}
	if c.Ways <= 0 || c.SizeBytes < c.LineBytes*c.Ways {
		panic(fmt.Sprintf("cache: invalid geometry %+v", c))
	}
	return c
}

// FullMask returns the mask with every sector of a line set.
func (c Config) FullMask() SectorMask {
	n := c.LineBytes / c.SectorBytes
	return SectorMask((1 << n) - 1)
}

// MaskForBytes returns the sector mask covering [offset, offset+n) bytes
// within a line.
func (c Config) MaskForBytes(offset, n int) SectorMask {
	if n <= 0 {
		return 0
	}
	first := offset / c.SectorBytes
	last := (offset + n - 1) / c.SectorBytes
	var m SectorMask
	for s := first; s <= last; s++ {
		m |= 1 << s
	}
	return m
}

// line is one cache way in 16 bytes: the tag (the line address) and a
// meta word packing the LRU stamp (bits 17–63), the dirty bit (bit 16)
// and the valid-sector mask (bits 0–15). A line with no valid sector is
// empty. A 16-way L2 set fits in 256 bytes.
type line struct {
	tag  uint64
	meta uint64
}

const (
	dirtyBit   = 1 << 16
	stampShift = 17
	// clockLimit is the first LRU stamp the meta word cannot hold: a
	// cache's clock panics rather than wrap past 2^47 accesses.
	clockLimit = 1 << (64 - stampShift)
)

func (l *line) valid() SectorMask { return SectorMask(l.meta) }
func (l *line) dirty() bool       { return l.meta&dirtyBit != 0 }
func (l *line) stamp() uint64     { return l.meta >> stampShift }

// touch sets the line's LRU stamp, keeping its dirty bit and sectors.
func (l *line) touch(clock uint64) {
	l.meta = clock<<stampShift | l.meta&(1<<stampShift-1)
}

// Result is the outcome of a cache lookup.
type Result int

const (
	// Hit — every needed sector valid.
	Hit Result = iota
	// Miss — line absent entirely.
	Miss
	// SectorMiss — line present but one or more needed sectors absent
	// (only possible in sectored caches with partial fills).
	SectorMiss
)

func (r Result) String() string {
	switch r {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	default:
		return "sector-miss"
	}
}

// Stats counts cache activity.
type Stats struct {
	Accesses     stats.Counter
	Hits         stats.Counter
	Misses       stats.Counter // line misses
	SectorMisses stats.Counter
}

// MissRate returns (Misses+SectorMisses)/Accesses.
func (s *Stats) MissRate() float64 {
	a := s.Accesses.Value()
	if a == 0 {
		return 0
	}
	return float64(s.Misses.Value()+s.SectorMisses.Value()) / float64(a)
}

// Cache is a set-associative, optionally sectored cache.
//
// Its lines live in one flat slice, set-major, allocated by the first
// Fill: a cache that is never filled (every cache of a comm-only run)
// holds no line storage, and answers every probe exactly as an empty
// one does, because an empty set has no valid way to match.
type Cache struct {
	cfg   Config
	nSets uint64
	lines []line // nSets*Ways entries, nil until the first Fill
	clock uint64
	Stats Stats
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	cfg = cfg.validate()
	nLines := cfg.SizeBytes / cfg.LineBytes
	nSets := nLines / cfg.Ways
	if nSets == 0 {
		nSets = 1
	}
	return &Cache{cfg: cfg, nSets: uint64(nSets)}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// locate returns the set holding addr (empty before the first Fill)
// and the line's tag.
func (c *Cache) locate(addr uint64) (set []line, tag uint64) {
	lineAddr := addr / uint64(c.cfg.LineBytes)
	if c.lines == nil {
		return nil, lineAddr
	}
	w := uint64(c.cfg.Ways)
	i := lineAddr % c.nSets * w
	return c.lines[i : i+w : i+w], lineAddr
}

// tick advances the LRU clock by one access. The clock panics rather
// than wrap: a wrapped stamp would silently invert the LRU order.
func (c *Cache) tick() {
	c.clock++
	if c.clock >= clockLimit {
		panic("cache: LRU clock passed 2^47 accesses")
	}
}

// Lookup probes the cache for the needed sectors of the line holding
// addr. It updates LRU on hit and the hit/miss statistics always.
func (c *Cache) Lookup(addr uint64, needed SectorMask) Result {
	c.Stats.Accesses.Inc()
	c.tick()
	set, tag := c.locate(addr)
	for i := range set {
		l := &set[i]
		if l.tag == tag && l.valid() != 0 {
			if l.valid()&needed == needed {
				l.touch(c.clock)
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

// Contains reports whether all needed sectors are present, without
// touching LRU or statistics.
func (c *Cache) Contains(addr uint64, needed SectorMask) bool {
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].tag == tag && set[i].valid() != 0 {
			return set[i].valid()&needed == needed
		}
	}
	return false
}

// Eviction describes a victim line displaced by a fill.
type Eviction struct {
	LineAddr uint64 // byte address of the evicted line
	Dirty    bool   // needs write-back (write-back caches only)
}

// Fill installs the given sectors of the line holding addr, evicting
// the LRU way if the line is absent and the set is full. It returns the
// eviction, if any.
func (c *Cache) Fill(addr uint64, mask SectorMask) (ev Eviction, evicted bool) {
	if mask == 0 {
		panic("cache: Fill with empty sector mask")
	}
	c.tick()
	if c.lines == nil {
		c.lines = make([]line, c.nSets*uint64(c.cfg.Ways))
	}
	set, tag := c.locate(addr)
	// Already present: merge sectors.
	for i := range set {
		l := &set[i]
		if l.tag == tag && l.valid() != 0 {
			l.meta |= uint64(mask)
			l.touch(c.clock)
			return Eviction{}, false
		}
	}
	// Choose an invalid way, else the LRU way.
	victim, empty := 0, false
	for i := range set {
		if set[i].valid() == 0 {
			victim, empty = i, true
			break
		}
		if set[i].stamp() < set[victim].stamp() {
			victim = i
		}
	}
	if !empty {
		v := &set[victim]
		ev, evicted = Eviction{LineAddr: v.tag * uint64(c.cfg.LineBytes), Dirty: v.dirty()}, true
	}
	set[victim] = line{tag: tag, meta: c.clock<<stampShift | uint64(mask)}
	return ev, evicted
}

// Write performs a store. In a write-back cache a present line is
// marked dirty (write hit); absent lines are not allocated (write
// no-allocate, matching the paper's L2 usage where stores come with
// their data). In a write-through cache Write touches LRU only; the
// store always propagates below. It reports whether the line was
// present.
func (c *Cache) Write(addr uint64, mask SectorMask) bool {
	c.tick()
	set, tag := c.locate(addr)
	for i := range set {
		l := &set[i]
		if l.tag == tag && l.valid() != 0 {
			l.meta |= uint64(mask)
			if c.cfg.WriteBack {
				l.meta |= dirtyBit
			}
			l.touch(c.clock)
			return true
		}
	}
	return false
}

// Invalidate drops the line holding addr if present (used at kernel
// boundaries under software coherence). Reports whether it was present.
func (c *Cache) Invalidate(addr uint64) bool {
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].tag == tag && set[i].valid() != 0 {
			set[i] = line{}
			return true
		}
	}
	return false
}

// InvalidateAll clears the whole cache (kernel-boundary flush). Dirty
// lines are dropped, not written back: only the write-through L1s are
// flushed.
func (c *Cache) InvalidateAll() { clear(c.lines) }
