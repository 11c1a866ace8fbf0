package core

import (
	"testing"

	"netcrafter/internal/flit"
	"netcrafter/internal/obs"
	"netcrafter/internal/sim"
)

func TestTrimGranularity4Bytes(t *testing.T) {
	cfg := Passthrough()
	cfg.EnableTrim = true
	h := newHarness(cfg)
	p := pkt(flit.ReadRsp, 1)
	p.TrimEligible = true
	p.SectorOffset = 2 // third 4-byte chunk
	p.TrimBytes = 4
	id := p.ID
	h.inject(segment(p, 16)...)
	h.run(200)
	// 4B header + 4B payload = 8 bytes -> 1 flit instead of 5.
	if len(h.out) != 1 {
		t.Fatalf("4B-granularity trim produced %d flits, want 1", len(h.out))
	}
	if cp := h.out[0].Pkt; cp.ID != id || cp.PayloadBytes() != 4 {
		t.Fatalf("trimmed copy of #%d: #%d with payload %d, want 4", id, cp.ID, cp.PayloadBytes())
	}
}

func TestEjectRateMatchesLinkBandwidth(t *testing.T) {
	run := func(rate int) sim.Cycle {
		cfg := Passthrough()
		cfg.EjectRate = rate
		h := newHarness(cfg)
		for i := 0; i < 8; i++ {
			h.inject(flitsOf(flit.ReadRsp, 1)...)
		}
		end, err := h.e.RunUntil(func() bool { return len(h.out) == 40 }, 10000)
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	slow, fast := run(1), run(4)
	if ratio := float64(slow) / float64(fast); ratio < 2 {
		t.Fatalf("eject rate 4 only %.1fx faster than rate 1", ratio)
	}
}

func TestClusterQueueBackpressure(t *testing.T) {
	cfg := Passthrough()
	cfg.CQEntries = 8 // tiny queue
	h := newHarness(cfg)
	// Jam the remote side by not draining it: replace the drain with a
	// fresh engine setup where Remote.Out is left alone.
	e := sim.NewEngine()
	ctl := NewController("jam", 0, 1, cfg, flit.NewPool())
	e.Register("ctl", ctl)
	for i := 0; i < 12; i++ {
		for _, f := range flitsOf(flit.ReadRsp, 1) {
			ctl.Local.In.Push(f, e.Now())
			e.Step()
		}
	}
	e.Run(100)
	// With nothing draining Remote.Out (cap 8) and a CQ cap of 8, the
	// controller must stop consuming Local.In rather than overflow.
	if ctl.QueuedFlits() > 8 {
		t.Fatalf("cluster queue holds %d flits beyond its capacity", ctl.QueuedFlits())
	}
	_ = h
}

func TestPerDstAccountingNeverNegative(t *testing.T) {
	cfg := Baseline()
	h := newHarness(cfg)
	types := []flit.Type{flit.ReadReq, flit.ReadRsp, flit.WriteReq, flit.WriteRsp, flit.PTReq, flit.PTRsp}
	rng := sim.NewRand(5)
	for i := 0; i < 200; i++ {
		p := pkt(types[rng.Intn(len(types))], 1)
		if p.Type == flit.ReadRsp && rng.Intn(2) == 0 {
			p.TrimEligible = true
			p.SectorOffset = uint8(rng.Intn(4))
		}
		h.inject(segment(p, 16)...)
		h.run(2)
	}
	h.run(3000)
	if h.ctl.QueuedFlits() != 0 {
		t.Fatalf("%d flits stranded", h.ctl.QueuedFlits())
	}
	for dst, n := range h.ctl.perDst {
		if n != 0 {
			t.Fatalf("perDst[%d] = %d after drain", dst, n)
		}
	}
}

func TestStitchedFlitNeverOverflowsOnWire(t *testing.T) {
	cfg := Baseline()
	h := newHarness(cfg)
	rng := sim.NewRand(9)
	types := []flit.Type{flit.ReadReq, flit.ReadRsp, flit.WriteRsp, flit.PTReq, flit.PTRsp}
	for i := 0; i < 300; i++ {
		h.inject(segment(pkt(types[rng.Intn(len(types))], 1), 16)...)
		if rng.Intn(3) == 0 {
			h.run(1)
		}
	}
	h.run(5000)
	for _, f := range h.out {
		if f.OccupiedBytes() > f.Size {
			t.Fatalf("flit on wire overflows its slot: %d > %d", f.OccupiedBytes(), f.Size)
		}
		for _, it := range f.Stitched {
			if it.Pkt.DstCluster != f.Pkt.DstCluster {
				t.Fatal("stitched item bound for a different cluster")
			}
		}
	}
}

func TestEightByteFlits(t *testing.T) {
	h := newHarness(Baseline())
	p := pkt(flit.ReadRsp, 1)
	h.inject(segment(p, 8)...)
	h.run(500)
	// 68 bytes at 8B flits: 9 flits, tail 4 used / 4 empty.
	if len(h.out) != 9 {
		t.Fatalf("8B flits: ejected %d, want 9", len(h.out))
	}
	for _, f := range h.out {
		if f.Size != 8 {
			t.Fatalf("flit size %d on an 8B network", f.Size)
		}
	}
}

func TestControllerStringer(t *testing.T) {
	c := NewController("x", 1, 1, Baseline(), flit.NewPool())
	if c.String() == "" || c.Config().PoolingCycles != 32 {
		t.Fatal("String/Config broken")
	}
}

func TestControllerLatencySampled(t *testing.T) {
	h := newHarness(Passthrough())
	h.ctl.ObsCtlLat = obs.NewRegistry().Hist("ctl_latency_cycles")
	h.inject(flitsOf(flit.ReadRsp, 1)...)
	h.run(100)
	if h.ctl.ObsCtlLat.Count() != 5 {
		t.Fatalf("latency samples = %d, want 5", h.ctl.ObsCtlLat.Count())
	}
	if h.ctl.ObsCtlLat.Mean() < 1 {
		t.Fatal("implausible zero controller latency")
	}
}

// TestPoolingIsLatencyNeutral pins the work-conserving design goal: a
// single-slot pooling buffer with idle-eject must engage (a flit does
// pool) without moving the controller's mean queueing latency by more
// than a few percent.
func TestPoolingIsLatencyNeutral(t *testing.T) {
	run := func(pool sim.Cycle) (mean float64, pooled int64) {
		cfg := Passthrough()
		cfg.EnableStitch = true
		cfg.PoolingCycles = pool
		h := newHarness(cfg)
		h.ctl.ObsCtlLat = obs.NewRegistry().Hist("ctl_latency_cycles")
		// ReadReq flits (4 empty bytes) have no 4-byte candidates in
		// this mix, so the pool slot engages; background keeps the
		// link busy.
		for i := 0; i < 10; i++ {
			h.inject(flitsOf(flit.ReadReq, 1)...)
			h.inject(backgroundFlits(2)...)
		}
		h.run(5000)
		return h.ctl.ObsCtlLat.Mean(), h.ctl.Net.PooledFlits.Value()
	}
	m0, p0 := run(0)
	m128, p128 := run(128)
	if p0 != 0 || p128 == 0 {
		t.Fatalf("pooling engagement wrong: %d/%d", p0, p128)
	}
	if m128 > m0*1.1 {
		t.Fatalf("pooling raised mean controller latency %.1f -> %.1f; not work-conserving", m0, m128)
	}
}

// TestTrimCopyOutlivesTrimmedTrain covers the lifetime the trim engine
// must get right with a pool attached: on a congested fabric the
// trimmed train can finish reassembly at the requester, and be
// released, before the trim engine has absorbed the last original flit.
// The train therefore carries a copy of the packet; the original stays
// with the trim state and is released only when its last flit is
// absorbed, after the copy's storage may already have been reissued.
func TestTrimCopyOutlivesTrimmedTrain(t *testing.T) {
	cfg := Passthrough()
	cfg.EnableTrim = true
	h := newHarness(cfg)
	pl := h.pool
	p := pl.NewPacket(flit.Packet{ID: 1, Type: flit.ReadRsp, DstCluster: 1, TrimEligible: true})
	orig := pl.Segment(nil, p, 16)
	h.inject(orig[0], orig[1]) // flit 1 carries sector 0: the train goes
	h.run(50)
	if len(h.out) != 2 {
		t.Fatalf("trimmed train has %d flits, want 2", len(h.out))
	}
	// The requester reassembles the train and releases it.
	var got *flit.Packet
	for _, f := range h.out {
		if f.Pkt.Arrive(f.Used) {
			got = f.Pkt
		}
		pl.ReleaseFlit(f)
	}
	if got == nil || got == p || got.ID != 1 || !got.Trimmed {
		t.Fatalf("train delivered %v, want a trimmed copy of the original", got)
	}
	pl.ReleasePacket(got)
	// New traffic takes the released copy's storage before the rest of
	// the original arrives.
	next := pl.NewPacket(flit.Packet{ID: 2, Type: flit.WriteRsp, DstCluster: 1})
	if next != got {
		t.Fatal("pool did not reissue the released copy")
	}
	h.inject(orig[2], orig[3], orig[4])
	h.run(50)
	if len(h.out) != 2 || h.ctl.QueuedFlits() != 0 || len(h.ctl.trims) != 0 {
		t.Fatalf("late original flits leaked: %d out, %d queued, %d trim states",
			len(h.out), h.ctl.QueuedFlits(), len(h.ctl.trims))
	}
	if n := h.ctl.Net; n.PacketsTrimmed.Value() != 1 || n.FlitsTrimmed.Value() != 3 {
		t.Fatalf("trim stats: %d packets, %d flits", n.PacketsTrimmed.Value(), n.FlitsTrimmed.Value())
	}
	if next.ID != 2 || next.Type != flit.WriteRsp {
		t.Fatalf("reissued packet disturbed: %v", next)
	}
	// Every original flit was absorbed and released, and the original
	// packet went back to the pool with the last of them.
	for i, f := range orig {
		if f.Pkt != nil {
			t.Fatalf("original flit %d still live: %v", i, f)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the original is still usable after its last flit was absorbed")
			}
		}()
		pl.ReleasePacket(p)
	}()
	if q := pl.NewPacket(flit.Packet{ID: 3}); q != p {
		t.Fatal("the original did not go back to its pool")
	}
}
