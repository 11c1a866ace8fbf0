package flit

import "testing"

// The benchmarks run the pooled path a cycle run takes: every flit and
// packet is issued by a pool and released back to it.

func BenchmarkSegmentReadRsp(b *testing.B) {
	pl := NewPool()
	p := pl.NewPacket(Packet{Type: ReadRsp})
	var buf []*Flit
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = pl.Segment(buf[:0], p, 16)
		for _, f := range buf {
			pl.ReleaseFlit(f)
		}
	}
}

func BenchmarkStitchUnstitch(b *testing.B) {
	pl := NewPool()
	parent := pl.NewPacket(Packet{ID: 1, Type: ReadRsp})
	cand := pl.NewPacket(Packet{ID: 2, Type: WriteRsp})
	var ps, cs, us []*Flit
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ps = pl.Segment(ps[:0], parent, 16)
		cs = pl.Segment(cs[:0], cand, 16)
		Stitch(ps[4], cs[0])
		pl.ReleaseFlit(cs[0])
		us = pl.Unstitch(us[:0], ps[4])
		for _, fl := range [][]*Flit{ps, us} {
			for _, f := range fl {
				pl.ReleaseFlit(f)
			}
		}
	}
}

func BenchmarkReassemble(b *testing.B) {
	pl := NewPool()
	var buf []*Flit
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pl.NewPacket(Packet{ID: uint64(i), Type: ReadRsp})
		buf = pl.Segment(buf[:0], p, 16)
		for _, f := range buf {
			f.Pkt.Arrive(f.Used)
			pl.ReleaseFlit(f)
		}
		pl.ReleasePacket(p)
	}
}
