package network

import (
	"testing"

	"netcrafter/internal/flit"
	"netcrafter/internal/sim"
)

// TestSwitchRoundRobinFairness: two inputs contending for one output
// must share it roughly equally.
func TestSwitchRoundRobinFairness(t *testing.T) {
	e := sim.NewEngine()
	sw := NewSwitch("sw", SwitchConfig{ProcessingLatency: 1, BufferEntries: 1024})
	srcA, srcB, dst := NewPort("a", 1024), NewPort("b", 1024), NewPort("d", 4096)
	pa := sw.AddPort(NewPort("ia", 1024))
	pb := sw.AddPort(NewPort("ib", 1024))
	pd := sw.AddPort(NewPort("od", 1024))
	e.Register("la", NewLink("la", srcA, sw.Ports()[pa], 4, 1))
	e.Register("lb", NewLink("lb", srcB, sw.Ports()[pb], 4, 1))
	e.Register("ld", NewLink("ld", sw.Ports()[pd], dst, 1, 1))
	sw.SetRoutes([]int32{9: int32(pd)})
	sk := &sink{port: dst}
	e.Register("sw", sw)
	e.Register("sk", sk)
	const n = 100
	for i := 0; i < n; i++ {
		pA := &flit.Packet{ID: uint64(i), Type: flit.ReadReq, Src: 1, Dst: 9}
		pB := &flit.Packet{ID: uint64(1000 + i), Type: flit.ReadReq, Src: 2, Dst: 9}
		srcA.Out.Push(flit.NewPool().Segment(nil, pA, 16)[0], 0)
		srcB.Out.Push(flit.NewPool().Segment(nil, pB, 16)[0], 0)
	}
	if _, err := e.RunUntil(func() bool { return len(sk.got) == 2*n }, 100000); err != nil {
		t.Fatal(err)
	}
	// Count how often each source appears in the first half.
	a := 0
	for _, f := range sk.got[:n] {
		if f.Pkt.Src == 1 {
			a++
		}
	}
	if a < n/4 || a > 3*n/4 {
		t.Fatalf("output share of input A in first half: %d/%d — unfair arbitration", a, n)
	}
}

// awakeSwitch is ticked in every round, as the tick-everything engine
// ticked every switch.
type awakeSwitch struct{ *Switch }

func (a awakeSwitch) NextWake(now sim.Cycle) sim.Cycle { return now + 1 }

// filler is busy on its first n cycles, so the engine processes those
// rounds while a switch beside it sleeps.
type filler struct{ n int }

func (f *filler) Tick(sim.Cycle) bool {
	if f.n == 0 {
		return false
	}
	f.n--
	return true
}

func (f *filler) NextWake(now sim.Cycle) sim.Cycle {
	if f.n == 0 {
		return sim.CycleMax
	}
	return now + 1
}

func (f *filler) SetWaker(*sim.Waker) {}

// TestSwitchArbitrationIgnoresSleep pins the round-robin start to the
// engine's processed rounds, not the switch's own ticks: after any
// number of rounds spent asleep, three inputs contending for one output
// leave in the order a switch ticked in every round produces, and that
// order moves with the round count.
func TestSwitchArbitrationIgnoresSleep(t *testing.T) {
	order := func(rounds int, awake bool) string {
		e := sim.NewEngine()
		sw := NewSwitch("sw", SwitchConfig{ProcessingLatency: 1, BufferEntries: 16})
		in := []*Port{NewPort("a", 16), NewPort("b", 16), NewPort("c", 16)}
		for _, p := range in {
			sw.AddPort(p)
		}
		out := NewPort("d", 16)
		sw.SetRoutes([]int32{int32(sw.AddPort(out))})
		e.Register("fill", &filler{n: rounds})
		if awake {
			e.Register("sw", awakeSwitch{sw})
		} else {
			e.Register("sw", sw)
		}
		e.Run(sim.Cycle(rounds))
		for i, p := range in {
			p.In.Push(mkFlit(uint64(i), 0), e.Now())
		}
		e.Run(20)
		var got []byte
		for f, ok := out.Out.Pop(e.Now()); ok; f, ok = out.Out.Pop(e.Now()) {
			got = append(got, byte('a'+f.Pkt.ID))
		}
		return string(got)
	}
	seen := map[string]bool{}
	for rounds := 0; rounds < 8; rounds++ {
		want, got := order(rounds, true), order(rounds, false)
		if len(want) != 3 || got != want {
			t.Errorf("after %d rounds: sleeping switch ejected %q, switch ticked every round %q", rounds, got, want)
		}
		seen[want] = true
	}
	if len(seen) < 2 {
		t.Errorf("ejection order %v never moved with the round count", seen)
	}
}

// TestSwitchPerInputOrderPreserved: flits from one input to one output
// stay in order through the pipeline and crossbar.
func TestSwitchPerInputOrderPreserved(t *testing.T) {
	e, ports, sinks := buildStar(t, 2, DefaultSwitchConfig())
	const n = 50
	for i := 0; i < n; i++ {
		ports[0].Out.Push(mkFlit(uint64(i), 1), 0)
	}
	if _, err := e.RunUntil(func() bool { return len(sinks[1].got) == n }, 100000); err != nil {
		t.Fatal(err)
	}
	for i, f := range sinks[1].got {
		if f.Pkt.ID != uint64(i) {
			t.Fatalf("flit %d arrived at position %d: reordering within a flow", f.Pkt.ID, i)
		}
	}
}

// TestLinkNeverExceedsBandwidth uses the recorded stats to verify the
// per-direction flit budget.
func TestLinkNeverExceedsBandwidth(t *testing.T) {
	a, b := NewPort("a", 0), NewPort("b", 0)
	link := NewLink("l", a, b, 3, 1)
	e := sim.NewEngine()
	e.Register("l", link)
	e.Register("s", &sink{port: b})
	for i := 0; i < 99; i++ {
		a.Out.Push(mkFlit(uint64(i), 1), 0)
	}
	end, err := e.RunUntil(func() bool { return link.AtoB.FlitsMoved.Value() == 99 }, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if u := link.AtoB.Utilization(end); u > 1.0+1e-9 {
		t.Fatalf("utilization %.3f exceeds 1.0", u)
	}
	// 99 flits at 3/cycle needs at least 33 cycles.
	if end < 33 {
		t.Fatalf("99 flits moved in %d cycles on a 3-flit/cycle link", end)
	}
}

func TestBadLinkAndPortRatePanic(t *testing.T) {
	func() {
		defer func() { recover() }()
		NewLink("l", NewPort("a", 1), NewPort("b", 1), 0, 1)
		t.Error("zero-bandwidth link accepted")
	}()
	func() {
		defer func() { recover() }()
		sw := NewSwitch("sw", DefaultSwitchConfig())
		sw.AddPort(NewPort("p", 1))
		sw.SetPortRate(0, 0)
		t.Error("zero port rate accepted")
	}()
	func() {
		defer func() { recover() }()
		sw := NewSwitch("sw", DefaultSwitchConfig())
		sw.SetRoutes([]int32{5})
		t.Error("route to missing port accepted")
	}()
}
