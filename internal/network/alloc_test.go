package network

import (
	"testing"

	"netcrafter/internal/sim"
)

// The wake-scheduled engine calls NextWake after every busy tick and
// Tick on every wake; both must be allocation-free or the engine's
// bookkeeping shows up in allocation profiles ahead of real work. These
// tests are regression pins for the hot path, enforced with
// testing.AllocsPerRun rather than benchmarks so `go test` alone
// catches a slip.

func newIdleSwitch(nPorts int) *Switch {
	sw := NewSwitch("sw", SwitchConfig{ProcessingLatency: 4, BufferEntries: 64})
	for i := 0; i < nPorts; i++ {
		sw.AddPort(NewPort("sw.p", 64))
	}
	return sw
}

func TestSwitchNextWakeNoAllocs(t *testing.T) {
	sw := newIdleSwitch(8)
	var now sim.Cycle
	if avg := testing.AllocsPerRun(1000, func() {
		sw.NextWake(now)
		now++
	}); avg != 0 {
		t.Errorf("Switch.NextWake allocates %.1f objects/op, want 0", avg)
	}
}

func TestSwitchIdleTickNoAllocs(t *testing.T) {
	sw := newIdleSwitch(8)
	var now sim.Cycle
	if avg := testing.AllocsPerRun(1000, func() {
		sw.Tick(now)
		now++
	}); avg != 0 {
		t.Errorf("idle Switch.Tick allocates %.1f objects/op, want 0", avg)
	}
}

// BenchmarkSwitchNextWake measures the re-arm cost the engine pays
// after every busy switch tick.
func BenchmarkSwitchNextWake(b *testing.B) {
	sw := newIdleSwitch(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sw.NextWake(sim.Cycle(i))
	}
}

// BenchmarkSwitchIdleTick measures the cost of waking a switch that has
// nothing to do — the case the wake engine exists to avoid ticking, and
// the floor for switches on mostly-idle fabrics.
func BenchmarkSwitchIdleTick(b *testing.B) {
	sw := newIdleSwitch(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sw.Tick(sim.Cycle(i))
	}
}

// countSink drains a port and counts deliveries without retaining
// flits, so hot-loop benchmarks measure the fabric rather than the
// observer.
type countSink struct {
	port *Port
	n    int
}

func (s *countSink) Tick(now sim.Cycle) bool {
	busy := false
	for {
		if _, ok := s.port.In.Peek(now); !ok {
			break
		}
		s.port.In.PopReady()
		s.n++
		busy = true
	}
	return busy
}

func (s *countSink) NextWake(now sim.Cycle) sim.Cycle { return s.port.In.NextReady() }
func (s *countSink) SetWaker(w *sim.Waker)            { s.port.In.SetWaker(w) }

// BenchmarkSwitchHotLoop drives a 2-port switch at saturation through
// the full engine (link in, switch, link out, sink) — the shape of the
// simulator's inner loop during network-bound workloads.
func BenchmarkSwitchHotLoop(b *testing.B) {
	e := sim.NewEngine()
	sw := NewSwitch("sw", SwitchConfig{ProcessingLatency: 4, BufferEntries: 1024})
	src, dst := NewPort("src", 1024), NewPort("dst", 1024)
	sw.AddPort(NewPort("in", 1024))
	outP := sw.AddPort(NewPort("out", 1024))
	sw.SetRoutes([]int32{2: int32(outP)})
	e.Register("l1", NewLink("l1", src, sw.Ports()[0], 4, 1))
	e.Register("sw", sw)
	e.Register("l2", NewLink("l2", sw.Ports()[1], dst, 4, 1))
	snk := &countSink{port: dst}
	e.Register("sink", snk)

	b.ReportAllocs()
	b.ResetTimer()
	sent := 0
	for snk.n < b.N {
		// Keep the source topped up, then let the engine drain a batch.
		for sent < b.N && !src.Out.Full() {
			if !src.Out.Push(mkFlit(uint64(sent), 2), e.Now()) {
				break
			}
			sent++
		}
		e.Run(64)
	}
}

// BenchmarkLinkHotLoop saturates a single link between two ports, the
// other half of the network inner loop.
func BenchmarkLinkHotLoop(b *testing.B) {
	e := sim.NewEngine()
	a, z := NewPort("a", 1024), NewPort("z", 1024)
	e.Register("l", NewLink("l", a, z, 4, 1))
	snk := &countSink{port: z}
	e.Register("sink", snk)

	b.ReportAllocs()
	b.ResetTimer()
	sent := 0
	for snk.n < b.N {
		for sent < b.N && !a.Out.Full() {
			if !a.Out.Push(mkFlit(uint64(sent), 1), e.Now()) {
				break
			}
			sent++
		}
		e.Run(64)
	}
}
