package cache

import (
	"testing"
	"testing/quick"
)

func tiny() Config {
	return Config{SizeBytes: 1024, Ways: 2, LineBytes: 64, SectorBytes: 16, MSHRs: 4}
}

func TestLookupMissThenHit(t *testing.T) {
	c := New(tiny())
	full := c.Config().FullMask()
	if r := c.Lookup(0x1000, full); r != Miss {
		t.Fatalf("cold lookup = %v", r)
	}
	c.Fill(0x1000, full)
	if r := c.Lookup(0x1000, full); r != Hit {
		t.Fatalf("post-fill lookup = %v", r)
	}
	if r := c.Lookup(0x1004, full); r != Hit {
		t.Fatalf("same-line lookup = %v", r)
	}
	if c.Stats.Hits.Value() != 2 || c.Stats.Misses.Value() != 1 {
		t.Fatalf("stats hits=%d misses=%d", c.Stats.Hits.Value(), c.Stats.Misses.Value())
	}
}

func TestSectorMissOnPartialFill(t *testing.T) {
	c := New(tiny())
	cfg := c.Config()
	s0 := cfg.MaskForBytes(0, 16)
	s3 := cfg.MaskForBytes(48, 16)
	c.Fill(0x2000, s0) // trimmed fill: only sector 0
	if r := c.Lookup(0x2000, s0); r != Hit {
		t.Fatalf("lookup of filled sector = %v", r)
	}
	if r := c.Lookup(0x2000, s3); r != SectorMiss {
		t.Fatalf("lookup of absent sector = %v", r)
	}
	c.Fill(0x2000, s3) // merge, no eviction
	if r := c.Lookup(0x2000, s0|s3); r != Hit {
		t.Fatalf("lookup after merge = %v", r)
	}
}

func TestMaskForBytes(t *testing.T) {
	cfg := tiny()
	for _, tc := range []struct {
		off, n int
		want   SectorMask
	}{
		{0, 4, 0b0001},
		{0, 16, 0b0001},
		{0, 17, 0b0011},
		{16, 16, 0b0010},
		{48, 16, 0b1000},
		{0, 64, 0b1111},
		{60, 4, 0b1000},
		{0, 0, 0},
	} {
		if got := cfg.MaskForBytes(tc.off, tc.n); got != tc.want {
			t.Errorf("MaskForBytes(%d,%d) = %04b want %04b", tc.off, tc.n, got, tc.want)
		}
	}
	if cfg.FullMask() != 0b1111 {
		t.Errorf("FullMask = %04b", cfg.FullMask())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(tiny()) // 1024/64 = 16 lines, 2 ways -> 8 sets
	full := c.Config().FullMask()
	// Three lines mapping to the same set (stride = sets*linebytes).
	stride := uint64(8 * 64)
	a, b, d := uint64(0), stride, 2*stride
	c.Fill(a, full)
	c.Fill(b, full)
	c.Lookup(a, full) // touch a so b is LRU
	_, evicted := c.Fill(d, full)
	if !evicted {
		t.Fatal("fill into full set did not evict")
	}
	if c.Lookup(b, full) != Miss {
		t.Fatal("LRU line b survived")
	}
	if c.Lookup(a, full) != Hit {
		t.Fatal("MRU line a was evicted")
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	cfg := tiny()
	cfg.WriteBack = true
	c := New(cfg)
	full := c.Config().FullMask()
	c.Fill(0, full)
	if !c.Write(0, full) {
		t.Fatal("write hit not detected")
	}
	stride := uint64(8 * 64)
	c.Fill(stride, full)
	ev, evicted := c.Fill(2*stride, full)
	if !evicted || !ev.Dirty || ev.LineAddr != 0 {
		t.Fatalf("dirty eviction wrong: %+v %v", ev, evicted)
	}
	if c.Stats.Writebacks.Value() != 1 {
		t.Fatalf("writebacks = %d", c.Stats.Writebacks.Value())
	}
}

func TestWriteThroughNeverDirty(t *testing.T) {
	c := New(tiny()) // write-through
	full := c.Config().FullMask()
	c.Fill(0, full)
	c.Write(0, full)
	stride := uint64(8 * 64)
	c.Fill(stride, full)
	ev, evicted := c.Fill(2*stride, full)
	if evicted && ev.Dirty {
		t.Fatal("write-through cache produced a dirty eviction")
	}
	if c.Stats.Writebacks.Value() != 0 {
		t.Fatal("write-through cache counted writebacks")
	}
}

func TestWriteMissNoAllocate(t *testing.T) {
	c := New(tiny())
	if c.Write(0x5000, c.Config().FullMask()) {
		t.Fatal("write miss reported as present")
	}
	if c.Lookup(0x5000, c.Config().FullMask()) != Miss {
		t.Fatal("write miss allocated a line")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(tiny())
	full := c.Config().FullMask()
	c.Fill(0x40, full)
	if !c.Invalidate(0x40) {
		t.Fatal("invalidate missed present line")
	}
	if c.Invalidate(0x40) {
		t.Fatal("invalidate hit absent line")
	}
	c.Fill(0x40, full)
	c.Fill(0x80, full)
	c.InvalidateAll()
	if c.Lookup(0x40, full) != Miss || c.Lookup(0x80, full) != Miss {
		t.Fatal("InvalidateAll left lines behind")
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := New(tiny())
	full := c.Config().FullMask()
	c.Fill(0, full)
	before := c.Stats.Accesses.Value()
	if !c.Contains(0, full) || c.Contains(0x9999999, full) {
		t.Fatal("Contains wrong")
	}
	if c.Stats.Accesses.Value() != before {
		t.Fatal("Contains counted as access")
	}
}

func TestGeometryValidation(t *testing.T) {
	for _, bad := range []Config{
		{SizeBytes: 64, Ways: 4, LineBytes: 64},                   // too small
		{SizeBytes: 1024, Ways: 2, LineBytes: 60, SectorBytes: 7}, // not multiple
		{SizeBytes: 1024, Ways: 2, LineBytes: 64, SectorBytes: 2}, // >16 sectors
	} {
		func() {
			defer func() { recover() }()
			New(bad)
			t.Errorf("config %+v accepted", bad)
		}()
	}
	// Paper configs must construct.
	New(L1Config())
	New(L2BankConfig())
}

// Property: sector validity only grows via Fill/Write merging, and a
// lookup hit implies every needed sector was filled at some point.
func TestSectorValidityProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(tiny())
		filled := map[uint64]SectorMask{}
		for _, op := range ops {
			lineIdx := uint64(op>>8) % 32
			addr := lineIdx * 64
			mask := SectorMask(op&0xF) | 1 // non-empty
			if op&0x10 != 0 {
				ev, evicted := c.Fill(addr, mask)
				filled[addr] |= mask
				if evicted {
					delete(filled, ev.LineAddr)
				}
			} else {
				r := c.Lookup(addr, mask)
				if r == Hit && filled[addr]&mask != mask {
					return false // hit on sectors never filled
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMSHRMergeAndRelease(t *testing.T) {
	m := NewMSHR[int](2)
	if m.Allocate(100, 1, 1) != Primary {
		t.Fatal("first miss not primary")
	}
	if m.Allocate(100, 2, 2) != Merged {
		t.Fatal("secondary miss not merged")
	}
	if m.Allocate(200, 1, 3) != Primary {
		t.Fatal("second line not primary")
	}
	if m.Allocate(300, 1, 4) != Stalled {
		t.Fatal("full MSHR did not stall")
	}
	if !m.Pending(100) || m.Pending(300) {
		t.Fatal("Pending wrong")
	}
	if mask, ok := m.Mask(100); !ok || mask != 3 {
		t.Fatalf("Mask(100) = %v,%v", mask, ok)
	}
	ws, mask, ok := m.Release(100)
	if !ok || mask != 3 || len(ws) != 2 || ws[0] != 1 || ws[1] != 2 {
		t.Fatalf("Release = %v %v %v", ws, mask, ok)
	}
	if _, _, ok := m.Release(100); ok {
		t.Fatal("double release succeeded")
	}
	if m.Len() != 1 || m.Full() {
		t.Fatal("MSHR accounting wrong after release")
	}
}

func TestMissRate(t *testing.T) {
	c := New(tiny())
	full := c.Config().FullMask()
	c.Lookup(0, full)
	c.Fill(0, full)
	c.Lookup(0, full)
	if mr := c.Stats.MissRate(); mr != 0.5 {
		t.Fatalf("miss rate = %f want 0.5", mr)
	}
	var empty Stats
	if empty.MissRate() != 0 {
		t.Fatal("empty miss rate != 0")
	}
}

// TestUnfilledCacheMatchesEmpty pins the storage-at-first-fill rule: a
// cache that was never filled holds no line storage, and Lookup,
// Contains, Write, Invalidate and InvalidateAll answer exactly as they
// do on an allocated cache with no valid line, statistics and LRU clock
// included. The first Fill allocates.
func TestUnfilledCacheMatchesEmpty(t *testing.T) {
	for _, cfg := range []Config{tiny(), L1Config(), L2BankConfig()} {
		lazy, empty := New(cfg), New(cfg)
		empty.lines = make([]line, empty.nSets*uint64(cfg.Ways))
		full := cfg.FullMask()
		for i := uint64(0); i < 64; i++ {
			addr := i * 0x1040
			if a, b := lazy.Lookup(addr, full), empty.Lookup(addr, full); a != b {
				t.Fatalf("Lookup(%#x) = %v unfilled, %v empty", addr, a, b)
			}
			if a, b := lazy.Contains(addr, 1), empty.Contains(addr, 1); a != b {
				t.Fatalf("Contains(%#x) = %v unfilled, %v empty", addr, a, b)
			}
			if a, b := lazy.Write(addr, full), empty.Write(addr, full); a != b {
				t.Fatalf("Write(%#x) = %v unfilled, %v empty", addr, a, b)
			}
			if a, b := lazy.Invalidate(addr), empty.Invalidate(addr); a != b {
				t.Fatalf("Invalidate(%#x) = %v unfilled, %v empty", addr, a, b)
			}
		}
		lazy.InvalidateAll()
		empty.InvalidateAll()
		if lazy.Stats != empty.Stats || lazy.clock != empty.clock {
			t.Fatalf("unfilled stats %+v clock %d, empty %+v clock %d",
				lazy.Stats, lazy.clock, empty.Stats, empty.clock)
		}
		if lazy.lines != nil {
			t.Fatalf("%+v: probes allocated %d lines before any fill", cfg, len(lazy.lines))
		}
		lazy.Fill(0x40, full)
		if got, want := len(lazy.lines), cfg.SizeBytes/cfg.LineBytes; got != want {
			t.Fatalf("first fill allocated %d lines, want %d", got, want)
		}
		if r := lazy.Lookup(0x40, full); r != Hit {
			t.Fatalf("lookup after first fill = %v", r)
		}
	}
}
