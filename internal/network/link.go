package network

import (
	"netcrafter/internal/sim"
	"netcrafter/internal/stats"
)

// Link is a bidirectional connection between two ports. Each direction
// moves up to its own rate of flits per cycle and imposes Latency
// cycles of propagation delay. When the receiving buffer is full the
// flit stays put — back-pressure that propagates upstream, exactly the
// paper's description of a stalled outgoing buffer pausing routing.
//
// Bandwidth mapping at the 1 GHz clock with 16-byte flits:
// 16 GB/s = 1 flit/cycle (the inter-GPU-cluster network),
// 128 GB/s = 8 flits/cycle (the intra-GPU-cluster network).
// The two directions are usually symmetric; asymmetric fabrics (a
// topology spec with bw_back) size them independently.
type Link struct {
	Name string
	A, B *Port
	// ABRate / BARate are the per-direction bandwidths in flits/cycle.
	ABRate, BARate int
	Latency        sim.Cycle

	// AtoB/BtoA expose per-direction statistics.
	AtoB *stats.LinkStats
	BtoA *stats.LinkStats
}

// NewLink connects two ports with the given symmetric per-direction
// bandwidth (flits/cycle) and propagation latency.
func NewLink(name string, a, b *Port, flitsPerCycle int, latency sim.Cycle) *Link {
	return NewAsymLink(name, a, b, flitsPerCycle, flitsPerCycle, latency)
}

// NewAsymLink connects two ports with independent per-direction
// bandwidths: abRate flits/cycle from a to b, baRate from b to a.
func NewAsymLink(name string, a, b *Port, abRate, baRate int, latency sim.Cycle) *Link {
	if abRate < 1 || baRate < 1 {
		panic("network: link bandwidth must be >= 1 flit/cycle")
	}
	return &Link{
		Name: name, A: a, B: b,
		ABRate:  abRate,
		BARate:  baRate,
		Latency: latency,
		AtoB:    stats.NewLinkStats(name+":a->b", abRate),
		BtoA:    stats.NewLinkStats(name+":b->a", baRate),
	}
}

// Tick moves flits in both directions. Implements sim.Ticker.
func (l *Link) Tick(now sim.Cycle) bool {
	busy := l.move(now, l.A, l.B, l.ABRate, l.AtoB)
	if l.move(now, l.B, l.A, l.BARate, l.BtoA) {
		busy = true
	}
	return busy
}

func (l *Link) move(now sim.Cycle, src, dst *Port, rate int, st *stats.LinkStats) bool {
	moved := false
	for i := 0; i < rate; i++ {
		f, ok := src.Out.Peek(now)
		if !ok {
			break
		}
		if dst.In.Full() {
			st.StallCycles.Inc()
			break
		}
		src.Out.PopReady() // readiness established by Peek above
		// The receiving queue's own one-cycle delay plus (Latency-1)
		// extra gives a total of Latency cycles of propagation.
		extra := l.Latency - 1
		if extra < 0 {
			extra = 0
		}
		dst.In.PushAt(f, now+1+extra)
		st.RecordMove(now)
		moved = true
	}
	return moved
}

// SetWaker implements sim.Ticker: pushes into either endpoint's
// Out queue (by the switch, RDMA engine, controller, or test code)
// re-arm the link.
func (l *Link) SetWaker(w *sim.Waker) {
	l.A.Out.SetWaker(w)
	l.B.Out.SetWaker(w)
}

// NextWake implements sim.Ticker.
func (l *Link) NextWake(now sim.Cycle) sim.Cycle {
	a, b := l.A.Out.NextReady(), l.B.Out.NextReady()
	if a < b {
		return a
	}
	return b
}
