package vm

import (
	"testing"

	"netcrafter/internal/obs"
	"netcrafter/internal/sim"
)

func TestPWCEvictionLRU(t *testing.T) {
	p := newPWC(2)
	p.insert(pwcKey{level: 1, prefix: 1}, 100)
	p.insert(pwcKey{level: 1, prefix: 2}, 200)
	p.lookup(pwcKey{level: 1, prefix: 1}) // refresh 1
	p.insert(pwcKey{level: 1, prefix: 3}, 300)
	if _, ok := p.lookup(pwcKey{level: 1, prefix: 2}); ok {
		t.Fatal("LRU entry survived")
	}
	if v, ok := p.lookup(pwcKey{level: 1, prefix: 1}); !ok || v != 100 {
		t.Fatal("refreshed entry evicted")
	}
	// Re-inserting an existing key must not evict.
	p.insert(pwcKey{level: 1, prefix: 1}, 100)
	if _, ok := p.lookup(pwcKey{level: 1, prefix: 3}); !ok {
		t.Fatal("re-insert evicted a live entry")
	}
}

func TestWalkLatencySampled(t *testing.T) {
	e, g, _, pt, tb := gmmuRig(DefaultGMMUConfig(), 25)
	pt.Map(0x777, 0x9000, 0)
	g.ObsWalkLat = obs.NewRegistry().Hist("gmmu.walk_latency_cycles")
	done := false
	g.Translate(transReq(tb, 0x777, func(uint64, sim.Cycle) { done = true }), 0)
	if _, err := e.RunUntil(func() bool { return done }, 10000); err != nil {
		t.Fatal(err)
	}
	if g.Stats.Walks.Value() != 1 {
		t.Fatalf("walks = %d", g.Stats.Walks.Value())
	}
	if g.ObsWalkLat.Count() != 1 || g.ObsWalkLat.Mean() < 100 {
		t.Fatalf("walk latency not sampled: n=%d mean=%.0f",
			g.ObsWalkLat.Count(), g.ObsWalkLat.Mean())
	}
}

func TestWalkOfUnmappedPanics(t *testing.T) {
	e, g, _, _, tb := gmmuRig(DefaultGMMUConfig(), 5)
	g.Translate(transReq(tb, 0xdead, nil), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("walk of unmapped VPN did not panic")
		}
	}()
	e.Run(1000)
}

func TestPrefixOfLevels(t *testing.T) {
	vpn := uint64(0b101_000000001_000000010_000000011) // l0=5? synthetic
	// prefixOf(level) strips (Levels-level)*9 bits.
	if prefixOf(vpn, Levels) != vpn {
		t.Fatal("full-depth prefix should be the VPN itself")
	}
	if prefixOf(vpn, 1) != vpn>>27 {
		t.Fatalf("level-1 prefix = %#x", prefixOf(vpn, 1))
	}
	if prefixOf(vpn, 3) != vpn>>9 {
		t.Fatalf("level-3 prefix = %#x", prefixOf(vpn, 3))
	}
}

func TestManyConcurrentDistinctWalks(t *testing.T) {
	e, g, _, pt, tb := gmmuRig(DefaultGMMUConfig(), 30)
	const n = 64
	for i := 0; i < n; i++ {
		pt.Map(uint64(i)<<18, uint64(i+1)<<PageShift, i%4)
	}
	done := 0
	for i := 0; i < n; i++ {
		g.Translate(transReq(tb, uint64(i)<<18, func(uint64, sim.Cycle) { done++ }), 0)
	}
	if _, err := e.RunUntil(func() bool { return done == n }, 200000); err != nil {
		t.Fatalf("only %d/%d walks completed: %v", done, n, err)
	}
	if g.Stats.Walks.Value() != n {
		t.Fatalf("walks = %d want %d", g.Stats.Walks.Value(), n)
	}
}
