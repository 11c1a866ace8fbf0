package gpu

import (
	"testing"

	"netcrafter/internal/flit"
	"netcrafter/internal/network"
	"netcrafter/internal/sim"
	"netcrafter/internal/vm"
	"netcrafter/internal/workload"
)

// pairTopology splits the physical space between two GPUs in two
// different clusters (so trim paths see inter-cluster requests).
type pairTopology struct{}

const pairSpan = uint64(1) << 40

func (pairTopology) HomeGPU(paddr uint64) int       { return int(paddr / pairSpan) }
func (pairTopology) DeviceOf(g int) flit.DeviceID   { return flit.DeviceID(g) }
func (pairTopology) ClusterOf(g int) flit.ClusterID { return flit.ClusterID(g) }

type pairAlloc struct{ next [2]uint64 }

func (a *pairAlloc) AllocFrame(g int) uint64 {
	addr := uint64(g)*pairSpan + a.next[g]
	a.next[g] += vm.PageBytes
	return addr
}

// pairRig wires two GPUs RDMA-to-RDMA with a direct link — the minimal
// remote-access fixture (no switches, no controller).
func pairRig(t *testing.T, cfg Config) (*sim.Engine, [2]*GPU, *vm.PageTable) {
	t.Helper()
	e := sim.NewEngine()
	sched := sim.NewScheduler()
	e.Register("sched", sched)
	pt := vm.NewPageTable(&pairAlloc{})
	topo := pairTopology{}
	pool := flit.NewPool()
	g0 := New(0, cfg, topo, pt, nil, sched, pool)
	g1 := New(1, cfg, topo, pt, nil, sched, pool)
	link := network.NewLink("l", g0.RDMA.Port, g1.RDMA.Port, 4, 1)
	e.Register("link", link)
	for _, g := range []*GPU{g0, g1} {
		for i, tk := range g.Tickers() {
			e.Register(g.Name+"t"+string(rune('0'+i)), tk)
		}
	}
	return e, [2]*GPU{g0, g1}, pt
}

func mapOn(pt *vm.PageTable, vaddr uint64, gpu int, pages int) {
	alloc := &pairAlloc{}
	alloc.next[gpu] = 1 << 30 // keep clear of page-table frames
	for p := 0; p < pages; p++ {
		pt.Map(vm.VPN(vaddr)+uint64(p), alloc.AllocFrame(gpu), gpu)
	}
}

func bothIdle(gs [2]*GPU) func() bool {
	return func() bool { return gs[0].Idle() && gs[1].Idle() }
}

func TestRemoteReadRoundTrip(t *testing.T) {
	e, gs, pt := pairRig(t, Config{})
	base := uint64(1) << 33
	mapOn(pt, base, 1, 2) // data lives on GPU 1
	gs[0].EnqueueWave(&fixedProgram{accs: []workload.LineAccess{
		{VAddr: base, Bytes: 8},
		{VAddr: base + 64, Bytes: 64},
	}}, 0)
	if _, err := e.RunUntil(bothIdle(gs), 5_000_000); err != nil {
		t.Fatal(err)
	}
	if gs[0].RDMA.Stats.RemoteReads.Value() != 2 {
		t.Fatalf("remote reads = %d", gs[0].RDMA.Stats.RemoteReads.Value())
	}
	if gs[1].RDMA.Stats.ServedReads.Value() != 2 {
		t.Fatalf("served reads = %d", gs[1].RDMA.Stats.ServedReads.Value())
	}
	if gs[0].RDMA.Stats.InterClusterReadLat.Count() != 2 {
		t.Fatal("latency not sampled")
	}
	// Fig-7 classification: one le16, one le64.
	if gs[0].RDMA.Stats.BytesNeeded.Get("le16") != 1 || gs[0].RDMA.Stats.BytesNeeded.Get("le64") != 1 {
		t.Fatalf("bytes-needed histogram: %s", gs[0].RDMA.Stats.BytesNeeded)
	}
}

func TestRemoteWritePostedAndAcked(t *testing.T) {
	e, gs, pt := pairRig(t, Config{})
	base := uint64(1) << 33
	mapOn(pt, base, 1, 1)
	gs[0].EnqueueWave(&fixedProgram{accs: []workload.LineAccess{
		{VAddr: base, Bytes: 64, Write: true},
	}}, 0)
	if _, err := e.RunUntil(bothIdle(gs), 5_000_000); err != nil {
		t.Fatal(err)
	}
	if gs[0].RDMA.Stats.RemoteWrites.Value() != 1 || gs[1].RDMA.Stats.ServedWrites.Value() != 1 {
		t.Fatal("remote write not served")
	}
	if gs[0].RDMA.OutstandingWrites() != 0 {
		t.Fatal("write never acknowledged")
	}
	if gs[1].Mem.Writes.Value() != 1 {
		t.Fatal("write never reached the home partition")
	}
}

func TestRemotePTEWalk(t *testing.T) {
	e, gs, pt := pairRig(t, Config{})
	base := uint64(1) << 33
	// Data on GPU 0 (local) but its PTE page co-located on GPU 1 by
	// mapping a GPU-1 page first in the same 2MB region.
	mapOn(pt, base, 1, 1)
	mapOn(pt, base+vm.PageBytes, 0, 1)
	gs[0].EnqueueWave(&fixedProgram{accs: []workload.LineAccess{
		{VAddr: base + vm.PageBytes, Bytes: 8},
	}}, 0)
	if _, err := e.RunUntil(bothIdle(gs), 5_000_000); err != nil {
		t.Fatal(err)
	}
	if gs[0].RDMA.Stats.RemotePTEReads.Value() == 0 {
		t.Fatal("walk never crossed the network despite remote PTE page")
	}
	if gs[1].RDMA.Stats.ServedPTEs.Value() == 0 {
		t.Fatal("home never served a PTE read")
	}
}

func TestSectorRequestPreTrimsAtSource(t *testing.T) {
	cfg := Config{FetchMode: FetchSector}
	e, gs, pt := pairRig(t, cfg)
	base := uint64(1) << 33
	mapOn(pt, base, 1, 1)
	gs[0].EnqueueWave(&fixedProgram{accs: []workload.LineAccess{
		{VAddr: base + 16, Bytes: 8}, // single sector
	}}, 0)
	if _, err := e.RunUntil(bothIdle(gs), 5_000_000); err != nil {
		t.Fatal(err)
	}
	// Only the needed sector may be valid in L1: the adjacent sector
	// must miss.
	cu := gs[0].CUs[0]
	pa, _ := pt.Translate(base + 16)
	line := pa / 64 * 64
	if !cu.L1.Contains(line, cu.L1.Config().MaskForBytes(16, 8)) {
		t.Fatal("needed sector not filled")
	}
	if cu.L1.Contains(line, cu.L1.Config().MaskForBytes(48, 8)) {
		t.Fatal("sector request filled an unneeded sector")
	}
}

func TestMultiSectorRequestInSectorMode(t *testing.T) {
	cfg := Config{FetchMode: FetchSector}
	e, gs, pt := pairRig(t, cfg)
	base := uint64(1) << 33
	mapOn(pt, base, 1, 1)
	gs[0].EnqueueWave(&fixedProgram{accs: []workload.LineAccess{
		{VAddr: base, Bytes: 32}, // spans two sectors
	}}, 0)
	if _, err := e.RunUntil(bothIdle(gs), 5_000_000); err != nil {
		t.Fatal(err)
	}
	cu := gs[0].CUs[0]
	pa, _ := pt.Translate(base)
	line := pa / 64 * 64
	cfg2 := cu.L1.Config()
	if !cu.L1.Contains(line, cfg2.MaskForBytes(0, 32)) {
		t.Fatal("two needed sectors not filled")
	}
	if cu.L1.Contains(line, cfg2.FullMask()) {
		t.Fatal("multi-sector request filled the whole line in sector mode")
	}
}
