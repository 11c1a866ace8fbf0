package network

import (
	"testing"

	"netcrafter/internal/flit"
	"netcrafter/internal/sim"
)

// TestSixPortSwitchDelivery drives a switch wider than the seed's
// 3-port cluster switches: one injector port and five destinations,
// every flit must come out of exactly the routed port.
func TestSixPortSwitchDelivery(t *testing.T) {
	sw := NewSwitch("wide", SwitchConfig{ProcessingLatency: 2, BufferEntries: 64})
	e := sim.NewEngine()

	src, in := NewPort("src", 64), NewPort("wide.in", 64)
	sw.AddPort(in)
	e.Register("l.in", NewLink("l.in", src, in, 4, 1))
	sw.SetPortRate(0, 4)

	sinks := make([]*sink, 5)
	routes := make([]int32, 5)
	for i := 0; i < 5; i++ {
		far, p := NewPort("far", 64), NewPort("wide.out", 64)
		routes[i] = int32(sw.AddPort(p))
		e.Register("l.out", NewLink("l.out", p, far, 1, 1))
		sinks[i] = &sink{port: far}
		e.Register("sink", sinks[i])
	}
	sw.SetRoutes(routes)
	e.Register("sw", sw)

	const perDst = 8
	id := uint64(0)
	for round := 0; round < perDst; round++ {
		for d := 0; d < 5; d++ {
			id++
			src.Out.Push(mkFlit(id, flit.DeviceID(d)), 0)
		}
	}
	_, err := e.RunUntil(func() bool {
		for _, s := range sinks {
			if len(s.got) != perDst {
				return false
			}
		}
		return true
	}, 10_000)
	if err != nil {
		t.Fatalf("six-port delivery incomplete: %v", err)
	}
	for d, s := range sinks {
		for _, f := range s.got {
			if f.Pkt.Dst != flit.DeviceID(d) {
				t.Fatalf("flit for device %d surfaced at sink %d", f.Pkt.Dst, d)
			}
		}
	}
}

func TestAsymLinkRates(t *testing.T) {
	a, b := NewPort("a", 64), NewPort("b", 64)
	link := NewAsymLink("l", a, b, 4, 1, 1)
	e := sim.NewEngine()
	sa, sb := &sink{port: a}, &sink{port: b}
	e.Register("l", link)
	e.Register("sa", sa)
	e.Register("sb", sb)

	for i := uint64(0); i < 8; i++ {
		a.Out.Push(mkFlit(100+i, 1), 0)
		b.Out.Push(mkFlit(200+i, 2), 0)
	}
	if _, err := e.RunUntil(func() bool { return len(sa.got) == 8 && len(sb.got) == 8 }, 100); err != nil {
		t.Fatal(err)
	}
	if fast, slow := link.AtoB.FlitsMoved.Value(), link.BtoA.FlitsMoved.Value(); fast != 8 || slow != 8 {
		t.Fatalf("moved %d/%d, want 8/8", fast, slow)
	}
	// 8 flits at 1/cycle need 8 move cycles; the 4/cycle direction
	// alone would have finished within 3.
	if e.Now() < 8 {
		t.Fatalf("finished at cycle %d: the 1 flit/cycle direction was not throttled", e.Now())
	}
	if link.ABRate != 4 || link.BARate != 1 {
		t.Fatalf("rates %d/%d", link.ABRate, link.BARate)
	}
}
