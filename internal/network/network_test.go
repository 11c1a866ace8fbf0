package network

import (
	"testing"

	"netcrafter/internal/flit"
	"netcrafter/internal/sim"
)

// sink collects every flit arriving at a port.
type sink struct {
	port *Port
	got  []*flit.Flit
}

func (s *sink) Tick(now sim.Cycle) bool {
	busy := false
	for {
		f, ok := s.port.In.Pop(now)
		if !ok {
			break
		}
		s.got = append(s.got, f)
		busy = true
	}
	return busy
}

func (s *sink) NextWake(now sim.Cycle) sim.Cycle { return s.port.In.NextReady() }

// SetWaker wires the sink's input so link deliveries re-arm it — the
// component-author rule for any hinted ticker fed by another component.
func (s *sink) SetWaker(w *sim.Waker) { s.port.In.SetWaker(w) }

func mkFlit(id uint64, dst flit.DeviceID) *flit.Flit {
	p := &flit.Packet{ID: id, Type: flit.ReadReq, Dst: dst}
	return flit.NewPool().Segment(nil, p, 16)[0]
}

func TestLinkDelivers(t *testing.T) {
	a, b := NewPort("a", 16), NewPort("b", 16)
	link := NewLink("l", a, b, 1, 5)
	dst := &sink{port: b}
	e := sim.NewEngine()
	e.Register("link", link)
	e.Register("dst", dst)

	a.Out.Push(mkFlit(1, 1), 0)
	_, err := e.RunUntil(func() bool { return len(dst.got) == 1 }, 100)
	if err != nil {
		t.Fatalf("flit not delivered: %v", err)
	}
	// Push at 0 -> visible in a.Out at 1 -> link moves at 1 ->
	// arrives at 1+latency=6, sink pops at 6.
	if e.Now() < 6 {
		t.Fatalf("delivered at cycle %d, before link latency elapsed", e.Now())
	}
	if link.AtoB.FlitsMoved.Value() != 1 {
		t.Fatal("link stats did not record the move")
	}
}

func TestLinkBandwidth(t *testing.T) {
	deliverTime := func(bw int) sim.Cycle {
		a, b := NewPort("a", 0), NewPort("b", 0)
		link := NewLink("l", a, b, bw, 1)
		dst := &sink{port: b}
		e := sim.NewEngine()
		e.Register("link", link)
		e.Register("dst", dst)
		for i := 0; i < 64; i++ {
			a.Out.Push(mkFlit(uint64(i), 1), 0)
		}
		end, err := e.RunUntil(func() bool { return len(dst.got) == 64 }, 1000)
		if err != nil {
			t.Fatalf("bw=%d: %v", bw, err)
		}
		return end
	}
	slow, fast := deliverTime(1), deliverTime(8)
	if fast >= slow {
		t.Fatalf("8 flits/cycle (%d cy) not faster than 1 flit/cycle (%d cy)", fast, slow)
	}
	if ratio := float64(slow) / float64(fast); ratio < 4 {
		t.Fatalf("bandwidth scaling ratio %.1f, want >= 4", ratio)
	}
}

func TestLinkBackpressureNoLoss(t *testing.T) {
	a, b := NewPort("a", 0), NewPort("b", 2) // tiny receive buffer
	link := NewLink("l", a, b, 4, 1)
	dst := &sink{port: b}
	e := sim.NewEngine()
	e.Register("link", link)
	// Deliberately do not register dst yet: receiver stalled.
	for i := 0; i < 20; i++ {
		a.Out.Push(mkFlit(uint64(i), 1), 0)
	}
	e.Run(50)
	if got := link.AtoB.FlitsMoved.Value(); got > 2 {
		t.Fatalf("link moved %d flits into a 2-entry stalled buffer", got)
	}
	if link.AtoB.StallCycles.Value() == 0 {
		t.Fatal("no stalls recorded while receiver blocked")
	}
	// Now attach the consumer; everything must eventually arrive.
	e.Register("dst", dst)
	if _, err := e.RunUntil(func() bool { return len(dst.got) == 20 }, 5000); err != nil {
		t.Fatalf("flits lost under backpressure: got %d, %v", len(dst.got), err)
	}
	seen := map[uint64]bool{}
	for _, f := range dst.got {
		if seen[f.Pkt.ID] {
			t.Fatalf("duplicate flit %d", f.Pkt.ID)
		}
		seen[f.Pkt.ID] = true
	}
}

// buildStar wires nEnd endpoints to one switch with unit-rate ports.
func buildStar(t *testing.T, nEnd int, cfg SwitchConfig) (*sim.Engine, []*Port, []*sink) {
	t.Helper()
	e := sim.NewEngine()
	sw := NewSwitch("sw", cfg)
	endPorts := make([]*Port, nEnd)
	sinks := make([]*sink, nEnd)
	routes := make([]int32, nEnd)
	for i := 0; i < nEnd; i++ {
		ep, swp := NewPort("end", 1024), NewPort("sw.p", cfg.BufferEntries)
		routes[i] = int32(sw.AddPort(swp))
		link := NewLink("l", ep, swp, 1, 1)
		endPorts[i] = ep
		sinks[i] = &sink{port: ep}
		e.Register("link", link)
		e.Register("sink", sinks[i])
	}
	sw.SetRoutes(routes)
	e.Register("sw", sw)
	return e, endPorts, sinks
}

func TestSwitchRoutesToCorrectPort(t *testing.T) {
	e, ports, sinks := buildStar(t, 3, DefaultSwitchConfig())
	ports[0].Out.Push(mkFlit(1, 2), 0) // from endpoint 0 to device 2
	ports[0].Out.Push(mkFlit(2, 1), 0)
	_, err := e.RunUntil(func() bool { return len(sinks[1].got)+len(sinks[2].got) == 2 }, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(sinks[1].got) != 1 || sinks[1].got[0].Pkt.ID != 2 {
		t.Fatalf("device 1 got %v", sinks[1].got)
	}
	if len(sinks[2].got) != 1 || sinks[2].got[0].Pkt.ID != 1 {
		t.Fatalf("device 2 got %v", sinks[2].got)
	}
	if len(sinks[0].got) != 0 {
		t.Fatal("flit echoed to source")
	}
}

func TestSwitchProcessingLatency(t *testing.T) {
	run := func(lat sim.Cycle) sim.Cycle {
		e, ports, sinks := buildStar(t, 2, SwitchConfig{ProcessingLatency: lat, BufferEntries: 1024})
		ports[0].Out.Push(mkFlit(1, 1), 0)
		end, err := e.RunUntil(func() bool { return len(sinks[1].got) == 1 }, 1000)
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	fast, slow := run(1), run(30)
	if slow-fast < 25 {
		t.Fatalf("30-cycle pipeline only added %d cycles over 1-cycle", slow-fast)
	}
}

func TestSwitchUnroutablePanics(t *testing.T) {
	e, ports, _ := buildStar(t, 2, DefaultSwitchConfig())
	ports[0].Out.Push(mkFlit(1, 99), 0) // no route for device 99
	defer func() {
		if recover() == nil {
			t.Fatal("unroutable flit did not panic")
		}
	}()
	e.Run(100)
}

// TestSwitchConservation drives a 4-endpoint star with all-to-all
// traffic and checks flit conservation and no duplication.
func TestSwitchConservation(t *testing.T) {
	e, ports, sinks := buildStar(t, 4, DefaultSwitchConfig())
	rng := sim.NewRand(7)
	const N = 400
	want := make([]int, 4)
	id := uint64(0)
	for i := 0; i < N; i++ {
		src := rng.Intn(4)
		dst := rng.Intn(3)
		if dst >= src {
			dst++
		}
		id++
		ports[src].Out.Push(mkFlit(id, flit.DeviceID(dst)), 0)
		want[dst]++
	}
	total := func() int {
		n := 0
		for _, s := range sinks {
			n += len(s.got)
		}
		return n
	}
	if _, err := e.RunUntil(func() bool { return total() == N }, 100000); err != nil {
		t.Fatalf("conservation violated: delivered %d of %d: %v", total(), N, err)
	}
	seen := map[uint64]bool{}
	for d, s := range sinks {
		if len(s.got) != want[d] {
			t.Fatalf("endpoint %d got %d flits, want %d", d, len(s.got), want[d])
		}
		for _, f := range s.got {
			if seen[f.Pkt.ID] {
				t.Fatalf("flit %d duplicated", f.Pkt.ID)
			}
			seen[f.Pkt.ID] = true
		}
	}
}

func TestSwitchHighRatePort(t *testing.T) {
	// A port with rate 8 should carry multi-flit bursts faster.
	run := func(rate int) sim.Cycle {
		e := sim.NewEngine()
		sw := NewSwitch("sw", SwitchConfig{ProcessingLatency: 1, BufferEntries: 1024})
		src, dst := NewPort("src", 1024), NewPort("dst", 1024)
		sp := sw.AddPort(NewPort("in", 1024))
		dp := sw.AddPort(NewPort("out", 1024))
		sw.SetPortRate(sp, rate)
		sw.SetPortRate(dp, rate)
		e.Register("l1", NewLink("l1", src, sw.Ports()[sp], rate, 1))
		e.Register("l2", NewLink("l2", sw.Ports()[dp], dst, rate, 1))
		sw.SetRoutes([]int32{1: int32(dp)})
		sk := &sink{port: dst}
		e.Register("sw", sw)
		e.Register("sink", sk)
		for i := 0; i < 128; i++ {
			src.Out.Push(mkFlit(uint64(i), 1), 0)
		}
		end, err := e.RunUntil(func() bool { return len(sk.got) == 128 }, 10000)
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	if slow, fast := run(1), run(8); float64(slow)/float64(fast) < 3 {
		t.Fatalf("rate-8 port not faster: %d vs %d cycles", fast, slow)
	}
}
