package cluster

import (
	"reflect"
	"testing"

	"netcrafter/internal/comm"
	"netcrafter/internal/flit"
	"netcrafter/internal/gpu"
	"netcrafter/internal/lasp"
	"netcrafter/internal/sim"
	"netcrafter/internal/topo"
	"netcrafter/internal/vm"
	"netcrafter/internal/workload"
)

// freeIssuers returns, for every flit and packet on pl's free lists,
// the pool that issued it. Pool exposes neither its free lists nor an
// object's issuer, so they are read by field name.
func freeIssuers(pl *flit.Pool) []uintptr {
	v := reflect.ValueOf(pl).Elem()
	var out []uintptr
	for _, list := range []string{"flits", "packets"} {
		l := v.FieldByName(list)
		for i := 0; i < l.Len(); i++ {
			out = append(out, l.Index(i).Elem().FieldByName("pool").Pointer())
		}
	}
	return out
}

// TestShardPoolsKeepOnlyTheirOwn runs GUPS on two shards, where about
// half the traffic crosses the shard boundary and is released by the
// shard that did not issue it. The run is driven through the
// coordinator, so the pools are read before a run would empty them:
// each must have taken back its own traffic and nothing else, so no
// free list can outgrow its shard's own peak in flight.
func TestShardPoolsKeepOnlyTheirOwn(t *testing.T) {
	g, err := topo.Preset("frontier-4x2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := WithNetCrafter().WithTopology(g)
	cfg.Shards = 2
	spec, err := workload.ByName("GUPS", workload.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	sys := mustBuild(t, cfg)
	sys.Load(spec)
	k := spec.Kernels[0]
	placement := lasp.ScheduleCTAs(k, sys.cfg.GPUs)
	for cta := 0; cta < k.CTAs; cta++ {
		for w := 0; w < k.WavesPerCTA; w++ {
			rng := sim.NewRand(waveSeed(sys.cfg.Seed, 0, cta, w))
			sys.GPUs[placement[cta]].EnqueueWave(k.NewProgram(cta, w, rng), 0)
		}
	}
	if _, err := sys.coord.RunUntil(sys.idleFns, testLimit); err != nil {
		t.Fatal(err)
	}
	if len(sys.pools) != 2 {
		t.Fatalf("%d pools for 2 shards", len(sys.pools))
	}
	for i, pl := range sys.pools {
		own := reflect.ValueOf(pl).Pointer()
		free := freeIssuers(pl)
		if len(free) == 0 {
			t.Errorf("shard %d got nothing back", i)
		}
		for _, issuer := range free {
			if issuer != own {
				t.Fatalf("shard %d free lists hold an object another pool issued", i)
			}
		}
	}
}

// TestRunsEmptyTheirPools pins that RunWorkload and RunComm leave no
// free list behind: the peak in-flight population they hold would
// otherwise stay live with the system.
func TestRunsEmptyTheirPools(t *testing.T) {
	spec, err := workload.ByName("GUPS", workload.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	sys := mustBuild(t, WithNetCrafter())
	if _, err := sys.RunWorkload(spec, testLimit); err != nil {
		t.Fatal(err)
	}
	if n := len(freeIssuers(sys.pools[0])); n != 0 {
		t.Fatalf("RunWorkload left %d flits and packets on the free lists", n)
	}
	if _, err := sys.RunCommByName("ring-allreduce", comm.Tiny(), comm.Options{}, testLimit); err != nil {
		t.Fatal(err)
	}
	if n := len(freeIssuers(sys.pools[0])); n != 0 {
		t.Fatalf("RunComm left %d flits and packets on the free lists", n)
	}
}

// remoteWrite returns one steady-state remote write on a built
// two-cluster NetCrafter system: GPU 0 posts a line-sized write homed
// on the last GPU, in the other cluster, and the engine runs until its
// WriteRsp has retired it.
func remoteWrite(tb testing.TB) func() {
	sys, err := Build(WithNetCrafter())
	if err != nil {
		tb.Fatal(err)
	}
	src, home := sys.GPUs[0], len(sys.GPUs)-1
	if sys.Topo.Devices[home].Cluster == sys.Topo.Devices[0].Cluster {
		tb.Fatal("the write would not cross clusters")
	}
	addr := commAddr(home, 0)
	acked := func() bool { return src.RDMA.OutstandingWrites() == 0 && sys.InFlight() == 0 }
	return func() {
		src.RDMA.WriteRemote(addr, 64, sys.Engine.Now())
		if _, err := sys.Engine.RunUntil(acked, sys.Engine.Now()+100_000); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestRemoteWriteNoAllocs pins a remote write, from WriteRemote to the
// WriteRsp that retires it, at zero allocations once the system is
// warm: the transaction, packets and flits all come from free lists,
// and every queue and cache along the way already has its storage.
func TestRemoteWriteNoAllocs(t *testing.T) {
	write := remoteWrite(t)
	for i := 0; i < 64; i++ {
		write()
	}
	if n := testing.AllocsPerRun(100, write); n != 0 {
		t.Fatalf("steady-state remote write: %v allocs, want 0", n)
	}
}

// conflictReads is an endless wavefront program of single-line reads
// that cycles through more lines than the L1 and L2 have ways, all in
// one L1 set and one L2 set, so every read misses both and DRAM serves
// it. It reuses one access buffer, as the workload generators do.
type conflictReads struct {
	vaddrs []uint64
	buf    [1]workload.LineAccess
	calls  int
}

func (p *conflictReads) Next() (workload.Instr, bool) {
	p.buf[0] = workload.LineAccess{VAddr: p.vaddrs[p.calls%len(p.vaddrs)], Bytes: 64}
	p.calls++
	return workload.Instr{Accesses: p.buf[:], ComputeCycles: 1}, true
}

// localRead returns one steady-state local read on a built system: a
// wavefront on GPU 0 misses its L1 and the L2 and waits for DRAM, and
// the engine runs until the wavefront fetches its next instruction.
// The pages are premapped, so the TLBs hit once warm.
func localRead(tb testing.TB) (read func(), g *gpu.GPU) {
	sys, err := Build(WithNetCrafter())
	if err != nil {
		tb.Fatal(err)
	}
	g = sys.GPUs[0]
	l1, l2 := g.Config().L1, g.Config().L2Bank
	// Lines this many lines apart share an L1 set and an L2 bank and set.
	stride := uint64(l1.SizeBytes/l1.LineBytes/l1.Ways) * uint64(g.Config().L2Banks*l2.SizeBytes/l2.LineBytes/l2.Ways)
	prog := &conflictReads{}
	vbase := uint64(1) << 36
	for k := 0; k < l2.Ways+4; k++ {
		paddr := gpuFrameSpan/4 + uint64(k)*stride*uint64(l2.LineBytes)
		sys.PT.Map(vm.VPN(vbase)+uint64(k), paddr, 0)
		prog.vaddrs = append(prog.vaddrs, vbase+uint64(k)*vm.PageBytes)
	}
	g.EnqueueWave(prog, sys.Engine.Now())
	target := 0
	fetched := func() bool { return prog.calls > target }
	return func() {
		target = prog.calls
		if _, err := sys.Engine.RunUntil(fetched, sys.Engine.Now()+100_000); err != nil {
			tb.Fatal(err)
		}
	}, g
}

// TestLocalReadNoAllocs pins a local read that misses the L1 and the L2
// at zero allocations once the system is warm: the transaction comes
// from the table's pool, the MSHRs reuse their slots, the program its
// access buffer, and the caches, DRAM queue and scheduler already have
// their storage.
func TestLocalReadNoAllocs(t *testing.T) {
	read, g := localRead(t)
	for i := 0; i < 300; i++ {
		read()
	}
	fetches, misses := g.Mem.DRAMFetches.Value(), g.L1Misses()
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Fatalf("steady-state local read: %v allocs, want 0", n)
	}
	if got := g.Mem.DRAMFetches.Value() - fetches; got < 100 {
		t.Fatalf("%d DRAM fetches in 101 reads: the reads hit a cache", got)
	}
	if got := g.L1Misses() - misses; got < 100 {
		t.Fatalf("%d L1 misses in 101 reads", got)
	}
}

// BenchmarkRemoteWrite measures one steady-state remote write through
// the whole fabric: RDMA, switches, both NetCrafter controllers, the
// home GPU's memory and the acknowledgment back.
func BenchmarkRemoteWrite(b *testing.B) {
	write := remoteWrite(b)
	for i := 0; i < 64; i++ {
		write()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write()
	}
}
