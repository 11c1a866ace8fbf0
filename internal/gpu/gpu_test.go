package gpu

import (
	"testing"

	"netcrafter/internal/flit"
	"netcrafter/internal/sim"
	"netcrafter/internal/vm"
	"netcrafter/internal/workload"
)

// soloTopology places every physical address on GPU 0 so a single GPU
// can run without a network.
type soloTopology struct{}

func (soloTopology) HomeGPU(paddr uint64) int       { return 0 }
func (soloTopology) DeviceOf(g int) flit.DeviceID   { return flit.DeviceID(g) }
func (soloTopology) ClusterOf(g int) flit.ClusterID { return flit.ClusterID(0) }

type soloAlloc struct{ next uint64 }

func (a *soloAlloc) AllocFrame(gpu int) uint64 {
	addr := a.next
	a.next += vm.PageBytes
	return addr
}

// soloGPU builds a one-GPU rig with an engine; all accesses are local.
func soloGPU(t *testing.T, cfg Config) (*sim.Engine, *GPU, *vm.PageTable) {
	t.Helper()
	e := sim.NewEngine()
	sched := sim.NewScheduler()
	e.Register("sched", sched)
	pt := vm.NewPageTable(&soloAlloc{next: 1 << 20})
	g := New(0, cfg, soloTopology{}, pt, nil, sched, flit.NewPool())
	for i, tk := range g.Tickers() {
		e.Register(g.Name+string(rune('a'+i)), tk)
	}
	return e, g, pt
}

// fixedProgram replays a fixed access list, one instruction per entry.
type fixedProgram struct {
	accs []workload.LineAccess
	i    int
}

func (p *fixedProgram) Next() (workload.Instr, bool) {
	if p.i >= len(p.accs) {
		return workload.Instr{}, false
	}
	a := p.accs[p.i]
	p.i++
	return workload.Instr{Accesses: []workload.LineAccess{a}, ComputeCycles: 1}, true
}

func mapRange(pt *vm.PageTable, base uint64, pages int) {
	alloc := &soloAlloc{next: 1 << 30}
	for p := 0; p < pages; p++ {
		pt.Map(vm.VPN(base)+uint64(p), alloc.AllocFrame(0), 0)
	}
}

func TestLocalReadCompletes(t *testing.T) {
	e, g, pt := soloGPU(t, Config{})
	base := uint64(1) << 32
	mapRange(pt, base, 4)
	g.EnqueueWave(&fixedProgram{accs: []workload.LineAccess{
		{VAddr: base, Bytes: 8},
		{VAddr: base + 64, Bytes: 64},
	}}, 0)
	if _, err := e.RunUntil(g.Idle, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if g.Instructions() != 2 {
		t.Fatalf("instructions = %d", g.Instructions())
	}
	if g.L1Accesses() == 0 || g.L1Misses() == 0 {
		t.Fatal("no cache activity")
	}
}

func TestL1HitOnRepeatedAccess(t *testing.T) {
	e, g, pt := soloGPU(t, Config{})
	base := uint64(1) << 32
	mapRange(pt, base, 1)
	accs := make([]workload.LineAccess, 10)
	for i := range accs {
		accs[i] = workload.LineAccess{VAddr: base, Bytes: 8}
	}
	g.EnqueueWave(&fixedProgram{accs: accs}, 0)
	if _, err := e.RunUntil(g.Idle, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if g.L1Misses() != 1 {
		t.Fatalf("L1 misses = %d, want 1 (9 hits)", g.L1Misses())
	}
}

func TestWriteThroughReachesMemory(t *testing.T) {
	e, g, pt := soloGPU(t, Config{})
	base := uint64(1) << 32
	mapRange(pt, base, 1)
	g.EnqueueWave(&fixedProgram{accs: []workload.LineAccess{
		{VAddr: base, Bytes: 64, Write: true},
	}}, 0)
	if _, err := e.RunUntil(g.Idle, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if g.Mem.Writes.Value() != 1 {
		t.Fatalf("partition writes = %d", g.Mem.Writes.Value())
	}
}

func TestFlushL1ForcesRefetch(t *testing.T) {
	e, g, pt := soloGPU(t, Config{})
	base := uint64(1) << 32
	mapRange(pt, base, 1)
	g.EnqueueWave(&fixedProgram{accs: []workload.LineAccess{{VAddr: base, Bytes: 8}}}, 0)
	if _, err := e.RunUntil(g.Idle, 1_000_000); err != nil {
		t.Fatal(err)
	}
	g.FlushL1()
	g.EnqueueWave(&fixedProgram{accs: []workload.LineAccess{{VAddr: base, Bytes: 8}}}, e.Now())
	if _, err := e.RunUntil(g.Idle, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if g.L1Misses() != 2 {
		t.Fatalf("misses = %d, want 2 after flush", g.L1Misses())
	}
}

func TestSectorModeFillsOnlyNeededSectors(t *testing.T) {
	cfg := Config{FetchMode: FetchSector}
	e, g, pt := soloGPU(t, cfg)
	base := uint64(1) << 32
	mapRange(pt, base, 1)
	// Read sector 0, then sector 3 of the same line: two misses in
	// sector mode.
	g.EnqueueWave(&fixedProgram{accs: []workload.LineAccess{
		{VAddr: base, Bytes: 8},
		{VAddr: base + 48, Bytes: 8},
	}}, 0)
	if _, err := e.RunUntil(g.Idle, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if g.L1Misses() != 2 {
		t.Fatalf("sector mode misses = %d, want 2", g.L1Misses())
	}

	// Full-line mode: second access hits.
	e2, g2, pt2 := soloGPU(t, Config{})
	mapRange(pt2, base, 1)
	g2.EnqueueWave(&fixedProgram{accs: []workload.LineAccess{
		{VAddr: base, Bytes: 8},
		{VAddr: base + 48, Bytes: 8},
	}}, 0)
	if _, err := e2.RunUntil(g2.Idle, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if g2.L1Misses() != 1 {
		t.Fatalf("full-line mode misses = %d, want 1", g2.L1Misses())
	}
}

func TestCrossLineAccessPanics(t *testing.T) {
	e, g, pt := soloGPU(t, Config{})
	base := uint64(1) << 32
	mapRange(pt, base, 1)
	g.EnqueueWave(&fixedProgram{accs: []workload.LineAccess{
		{VAddr: base + 60, Bytes: 16}, // spans two lines
	}}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-line access did not panic")
		}
	}()
	e.Run(10_000)
}

func TestTrimFields(t *testing.T) {
	for _, tc := range []struct {
		paddr    uint64
		bytes    int
		eligible bool
		offset   uint8
	}{
		{0, 8, true, 0},
		{16, 16, true, 1},
		{48, 4, true, 3},
		{8, 16, false, 0}, // spans sectors 0 and 1
		{0, 32, false, 0}, // needs two sectors
		{0, 0, false, 0},
	} {
		e, o := trimFields(tc.paddr, tc.bytes, 16)
		if e != tc.eligible || o != tc.offset {
			t.Errorf("trimFields(%d,%d) = %v,%d want %v,%d",
				tc.paddr, tc.bytes, e, o, tc.eligible, tc.offset)
		}
	}
	// 4-byte granularity.
	if e, o := trimFields(12, 4, 4); !e || o != 3 {
		t.Errorf("trimFields(12,4,4) = %v,%d", e, o)
	}
}

func TestConfigDefaultsMatchTable2(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.L1.SizeBytes != 64<<10 || c.L1.MSHRs != 32 {
		t.Fatalf("L1 defaults wrong: %+v", c.L1)
	}
	if c.L2Banks != 16 || c.L2Bank.SizeBytes != 256<<10 {
		t.Fatalf("L2 defaults wrong")
	}
	if c.L2Latency != 100 || c.L1Latency != 20 {
		t.Fatal("latency defaults wrong")
	}
	if c.L1TLB.Entries != 32 || c.L2TLB.Entries != 512 || c.GMMU.Walkers != 16 {
		t.Fatal("VM defaults wrong")
	}
	if c.L1.SectorBytes != c.TrimBytes {
		t.Fatal("L1 sector granularity not synced to trim size")
	}
	if FetchFullLine.String() == FetchSector.String() {
		t.Fatal("fetch mode names collide")
	}
}

// TestConcurrentMissesOnOneVPNWalkOnce pins the walk-per-VPN rule the
// GMMU relies on: every CU misses its L1 TLB on the same page at once,
// the L2 TLB sees one miss per CU and merges them in its MSHRs, and the
// GMMU receives exactly one walk.
func TestConcurrentMissesOnOneVPNWalkOnce(t *testing.T) {
	e, g, pt := soloGPU(t, Config{})
	base := uint64(1) << 32
	mapRange(pt, base, 1)
	waves := g.Config().NumCUs * g.Config().WavefrontSlots
	for w := 0; w < waves; w++ {
		// Distinct lines of one page, so only the translation is shared.
		g.EnqueueWave(&fixedProgram{accs: []workload.LineAccess{
			{VAddr: base + uint64(w%64)*64, Bytes: 8},
		}}, 0)
	}
	if _, err := e.RunUntil(g.Idle, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if got, want := g.L2TLB.Stats.Misses.Value(), int64(g.Config().NumCUs); got != want {
		t.Fatalf("L2 TLB misses = %d, want %d (one per CU)", got, want)
	}
	if got := g.GMMU.Stats.Walks.Value(); got != 1 {
		t.Fatalf("GMMU walks = %d for one VPN, want 1", got)
	}
}
