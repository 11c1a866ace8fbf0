package flit

import (
	"slices"
	"testing"
)

// segment splits p into flits issued by a pool of their own.
func segment(p *Packet, flitBytes int) []*Flit {
	return NewPool().Segment(nil, p, flitBytes)
}

// arrive delivers f and everything stitched inside it, returning the
// packets completed, in arrival order.
func arrive(f *Flit) []*Packet {
	var done []*Packet
	if f.Pkt.Arrive(f.Used) {
		done = append(done, f.Pkt)
	}
	for _, it := range f.Stitched {
		if it.Pkt.Arrive(it.Used) {
			done = append(done, it.Pkt)
		}
	}
	return done
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestPoolRecyclesFlitsAndPackets(t *testing.T) {
	pl := NewPool()
	p := pl.NewPacket(Packet{ID: 7, Type: ReadRsp, DstCluster: 1})
	fl := pl.Segment(nil, p, 16)
	if len(fl) != 5 || fl[4].Pkt != p || !fl[4].Last || fl[4].Used != 4 {
		t.Fatalf("pooled segmentation = %v", fl)
	}
	for i, f := range fl {
		done := arrive(f)
		if (i == len(fl)-1) != (len(done) == 1) {
			t.Fatalf("flit %d completed %v", i, done)
		}
		pl.ReleaseFlit(f)
	}
	pl.ReleasePacket(p)
	if f, n := len(pl.flits), len(pl.packets); f != 5 || n != 1 {
		t.Fatalf("free lists hold %d flits, %d packets; want 5, 1", f, n)
	}
	q := pl.NewPacket(Packet{ID: 8, Type: WriteRsp})
	if q != p || q.ID != 8 || q.arrived != 0 {
		t.Fatalf("released packet not reissued clean: %+v", q)
	}
	g := pl.Segment(nil, q, 16)[0]
	if g.Pkt != q || g.Seq != 0 || !g.Last || len(g.Stitched) != 0 || g.CtlArrivedAt != 0 {
		t.Fatalf("reissued flit not clean: %+v", g)
	}
	if !slices.Contains(fl, g) {
		t.Fatal("pool allocated a flit while five were free")
	}
}

// TestReleasedFlitAndPacketPanic pins the lifetime rule: a released
// flit or packet must never be touched, and the package's operations
// panic on one, as txn does on a released transaction.
func TestReleasedFlitAndPacketPanic(t *testing.T) {
	pl := NewPool()
	live := pl.Segment(nil, pl.NewPacket(Packet{ID: 1, Type: ReadRsp}), 16)[4]
	dead := pl.Segment(nil, pl.NewPacket(Packet{ID: 2, Type: WriteRsp}), 16)[0]
	pl.ReleaseFlit(dead)
	if dead.Pkt != nil {
		t.Fatal("released flit still points at its packet")
	}
	mustPanic(t, "double flit release", func() { pl.ReleaseFlit(dead) })
	mustPanic(t, "stitching a released flit", func() { CanStitch(live, dead) })
	mustPanic(t, "stitching into a released flit", func() { Stitch(dead, live) })
	mustPanic(t, "unstitching a released flit", func() { pl.Unstitch(nil, dead) })

	p := pl.NewPacket(Packet{ID: 3, Type: ReadReq})
	pl.ReleasePacket(p)
	mustPanic(t, "double packet release", func() { pl.ReleasePacket(p) })
	mustPanic(t, "segmenting a released packet", func() { pl.Segment(nil, p, 16) })
	mustPanic(t, "reassembling a released packet", func() { p.Arrive(4) })
	mustPanic(t, "copying a released packet", func() { pl.NewPacket(*p) })
}

// TestPoolKeepsOnlyItsOwn pins the cross-shard rule: a flit or packet
// released into a pool that did not issue it is left to the collector,
// so no free list outgrows its own pool.
func TestPoolKeepsOnlyItsOwn(t *testing.T) {
	a, b := NewPool(), NewPool()
	p := a.NewPacket(Packet{ID: 1, Type: ReadRsp})
	fl := a.Segment(nil, p, 16)
	for _, f := range fl {
		b.ReleaseFlit(f)
	}
	b.ReleasePacket(p)
	if f, n := len(b.flits), len(b.packets); f != 0 || n != 0 {
		t.Fatalf("foreign pool kept %d flits, %d packets", f, n)
	}
	if f, n := len(a.flits), len(a.packets); f != 0 || n != 0 {
		t.Fatalf("issuing pool got %d flits, %d packets back from another pool's release", f, n)
	}
	loose := segment(&Packet{ID: 2, Type: WriteRsp}, 16)[0]
	a.ReleaseFlit(loose)
	if len(a.flits) != 0 {
		t.Fatal("pool kept a flit it never issued")
	}
}

// TestCopiedPacketIsIndependent pins what the trim engine relies on: a
// NewPacket(*p) copy starts its own reassembly count and lifetime, so
// releasing one leaves the other usable.
func TestCopiedPacketIsIndependent(t *testing.T) {
	pl := NewPool()
	p := pl.NewPacket(Packet{ID: 4, Type: ReadRsp, TrimEligible: true})
	p.Arrive(16)
	cp := pl.NewPacket(*p)
	TrimResponse(cp)
	if cp == p || cp.ID != p.ID || cp.arrived != 0 || p.Trimmed || !cp.Trimmed {
		t.Fatalf("copy %+v of %+v", cp, p)
	}
	for _, f := range pl.Segment(nil, cp, 16) {
		arrive(f)
		pl.ReleaseFlit(f)
	}
	pl.ReleasePacket(cp)
	if p.RequiredBytes() != 68 || p.arrived != 16 {
		t.Fatalf("original disturbed by its copy's release: %+v, %d bytes arrived", p, p.arrived)
	}
	if !p.Arrive(52) {
		t.Fatal("original did not complete on its remaining bytes")
	}
}

// TestPooledTrafficNoAllocs pins the steady state a pool exists for:
// once warm, issuing a packet, segmenting, stitching, unstitching and
// releasing everything allocates nothing.
func TestPooledTrafficNoAllocs(t *testing.T) {
	pl := NewPool()
	var buf, cands, items []*Flit
	cycle := func() {
		p := pl.NewPacket(Packet{ID: 1, Type: ReadRsp})
		q := pl.NewPacket(Packet{ID: 2, Type: WriteRsp})
		buf = pl.Segment(buf[:0], p, 16)
		cands = pl.Segment(cands[:0], q, 16)
		Stitch(buf[4], cands[0])
		pl.ReleaseFlit(cands[0])
		items = pl.Unstitch(items[:0], buf[4])
		for _, fl := range [][]*Flit{buf, items} {
			for _, f := range fl {
				f.Pkt.Arrive(f.Used)
				pl.ReleaseFlit(f)
			}
		}
		pl.ReleasePacket(p)
		pl.ReleasePacket(q)
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("pooled packet life: %v allocs, want 0", n)
	}
}
