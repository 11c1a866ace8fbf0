package network

import (
	"netcrafter/internal/flit"
	"netcrafter/internal/sim"
	"netcrafter/internal/stats"
)

// Staged is one flit captured at a shard boundary: the flit itself plus
// the absolute cycle at which it becomes visible in the destination
// port's In queue (the same readyAt a serial Link would have pushed it
// with). Batches of Staged flits are what shard coordinators exchange
// at epoch barriers.
type Staged struct {
	F       *flit.Flit
	ReadyAt sim.Cycle
}

// HalfLink is one direction of a boundary Link whose destination port
// lives in a different shard. It ticks in the source shard's engine at
// the link's registration slot and reproduces Link.move exactly — same
// rate limit, same stall accounting, same propagation delay — except
// that instead of pushing into the remote In queue directly it stages
// flits into a batch (drained by the destination shard at the next
// epoch barrier) and models the remote queue's back-pressure with a
// local occupancy mirror.
//
// The mirror is exact, not approximate: in the serial system the only
// producer into a boundary port's In queue is the link itself, and the
// consumer (a switch or controller) is registered after every link, so
// the length the serial Full() check observes at cycle N is "everything
// delivered through cycle N-1 minus everything consumed through cycle
// N-1". The coordinator reconstructs that number each epoch from the
// consumer shard's reported post-epoch length plus the producer's own
// last staged batch (delivered but not yet reflected in the report),
// and installs it via SyncOccupancy before the source shard steps.
type HalfLink struct {
	Name string

	src  *Port
	rate int
	lat  sim.Cycle
	st   *stats.LinkStats

	// cap is the destination In queue's capacity (0 = unbounded); occ
	// mirrors its length as seen by a serial Link's Full() check.
	cap int
	occ int

	batch []Staged
}

// SplitLink splits a boundary link into its two directional halves for
// registration in (potentially different) shard engines. The halves
// share the link's ports and per-direction stats objects, so reporting
// code that reads Link.AtoB / Link.BtoA (or walks InterLinks) is
// oblivious to the split.
func SplitLink(l *Link) (ab, ba *HalfLink) {
	ab = &HalfLink{
		Name: l.Name + ":ab",
		src:  l.A, rate: l.ABRate, lat: l.Latency,
		st: l.AtoB, cap: l.B.In.Cap(),
	}
	ba = &HalfLink{
		Name: l.Name + ":ba",
		src:  l.B, rate: l.BARate, lat: l.Latency,
		st: l.BtoA, cap: l.A.In.Cap(),
	}
	return ab, ba
}

// Tick implements sim.Ticker for the half's direction. It mirrors
// Link.move flit for flit; the other direction is ticked by the peer
// half in its own shard, and a serial Link's scan of a direction with
// nothing ready has no side effects, so splitting preserves the serial
// link's per-cycle behavior exactly.
func (h *HalfLink) Tick(now sim.Cycle) bool {
	moved := false
	for i := 0; i < h.rate; i++ {
		f, ok := h.src.Out.Peek(now)
		if !ok {
			break
		}
		if h.cap > 0 && h.occ >= h.cap {
			h.st.StallCycles.Inc()
			break
		}
		h.src.Out.PopReady() // readiness established by Peek above
		extra := h.lat - 1
		if extra < 0 {
			extra = 0
		}
		h.batch = append(h.batch, Staged{F: f, ReadyAt: now + 1 + extra})
		h.occ++
		h.st.RecordMove(now)
		moved = true
	}
	return moved
}

// SetWaker implements sim.Ticker: pushes into the source port's Out
// queue re-arm this half. (The serial Link also woke on peer-side
// pushes, but ticking this direction then was a guaranteed no-op.)
func (h *HalfLink) SetWaker(w *sim.Waker) { h.src.Out.SetWaker(w) }

// NextWake implements sim.Ticker.
func (h *HalfLink) NextWake(now sim.Cycle) sim.Cycle { return h.src.Out.NextReady() }

// TakeBatch returns the flits staged since the last call and resets the
// batch to spare (reusing its backing array), so the steady-state
// exchange allocates nothing once batch slices have grown.
func (h *HalfLink) TakeBatch(spare []Staged) []Staged {
	b := h.batch
	h.batch = spare[:0]
	return b
}

// SyncOccupancy installs the destination queue length a serial Link
// would observe at the next processed cycle's Full() check.
func (h *HalfLink) SyncOccupancy(n int) { h.occ = n }
