package network

import (
	"testing"

	"netcrafter/internal/flit"
	"netcrafter/internal/sim"
)

func BenchmarkSwitchSaturated(b *testing.B) {
	e := sim.NewEngine()
	sw := NewSwitch("sw", DefaultSwitchConfig())
	src, dst := NewPort("src", 0), NewPort("dst", 0)
	sp := sw.AddPort(NewPort("in", 4096))
	dp := sw.AddPort(NewPort("out", 4096))
	sw.SetPortRate(sp, 8)
	sw.SetPortRate(dp, 8)
	e.Register("l1", NewLink("l1", src, sw.Ports()[sp], 8, 1))
	e.Register("l2", NewLink("l2", sw.Ports()[dp], dst, 8, 1))
	sw.SetRoutes([]int32{1: int32(dp)})
	sk := &sink{port: dst}
	e.Register("sw", sw)
	e.Register("sk", sk)
	p := &flit.Packet{ID: 1, Type: flit.ReadRsp, Dst: 1}
	fl := flit.NewPool().Segment(nil, p, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fl {
			src.Out.Push(f, e.Now())
		}
		e.Step()
	}
}
