package flow

import (
	"fmt"
	"math"

	"netcrafter/internal/comm"
	"netcrafter/internal/sim"
)

// Numerical tolerances. Event times and byte counts are float64; the
// epsilons only absorb accumulated rounding, they never change which
// event fires first by more than a sub-cycle sliver.
const (
	timeEps   = 1e-6  // slack when comparing event times (cycles)
	byteEps   = 1e-6  // remaining payload below this counts as transmitted
	weightEps = 1e-12 // a segment with less demand than this is unloaded
	capEps    = 1e-9  // relative capacity below this counts as exhausted
)

// ackEvent is one pending last-acknowledgment arrival.
type ackEvent struct {
	at  float64
	idx int32
}

// solver is one Run's private state: the plan's comm.Tracker (step
// frontier, request completion, byte and line totals, the Result) plus
// the per-send flow state, the active flow set and the per-segment
// scratch of the max-min computation.
type solver struct {
	n     *Network
	p     *comm.Plan
	tk    *comm.Tracker
	limit float64

	// Per send, indexed like p.Sends.
	remaining []float64
	rate      []float64
	wFwd      []float64 // forward wire bytes per payload byte
	wRev      []float64 // reverse (ack) wire bytes per payload byte
	lines     []int64
	elig      []float64 // earliest eligible time (At)
	legs      []legs    // zero for self-sends
	frozen    []bool

	// Step machinery: perStep[s] lists step-s send indices sorted by
	// (eligible time, index); head[s] is the activation cursor. Steps
	// up to the tracker's frontier may activate.
	perStep [][]int32
	head    []int

	active []int32
	acks   []ackEvent // min-heap on (at, idx)

	// Per-segment scratch, reset via touched between recomputes.
	sumW    []float64
	capLeft []float64
	inSeg   []bool
	touched []int32

	now   float64
	acked int
	dirty bool
}

func newSolver(n *Network, p *comm.Plan, limit sim.Cycle) *solver {
	ns := len(p.Sends)
	s := &solver{
		n:     n,
		p:     p,
		tk:    comm.NewTracker(p, comm.Options{}),
		limit: math.Inf(1),

		remaining: make([]float64, ns),
		rate:      make([]float64, ns),
		wFwd:      make([]float64, ns),
		wRev:      make([]float64, ns),
		lines:     make([]int64, ns),
		elig:      make([]float64, ns),
		legs:      make([]legs, ns),
		frozen:    make([]bool, ns),

		sumW:    make([]float64, len(n.cap)),
		capLeft: make([]float64, len(n.cap)),
		inSeg:   make([]bool, len(n.cap)),
	}
	if limit > 0 {
		s.limit = float64(limit)
	}

	// The buckets share one exactly sized backing array, carved by the
	// tracker's per-step send counts, so one pass over the plan fills
	// them.
	s.perStep = make([][]int32, s.tk.Steps())
	s.head = make([]int, len(s.perStep))
	flat, lo := make([]int32, ns), 0
	for st := range s.perStep {
		c := s.tk.Unacked(st)
		s.perStep[st] = flat[lo : lo : lo+c]
		lo += c
	}
	for i := range p.Sends {
		sd := &p.Sends[i]
		s.elig[i] = float64(sd.At)
		if sd.Src == sd.Dst {
			// Local delivery: one tracker-accounting unit, no flow.
			s.lines[i] = 1
		} else {
			s.lines[i], s.wFwd[i], s.wRev[i] = wireCost(sd.Bytes, n.opt.FlitBytes)
			s.wFwd[i] /= float64(sd.Bytes)
			s.wRev[i] /= float64(sd.Bytes)
			s.legs[i] = n.legs(sd.Src, sd.Dst)
		}
		s.perStep[sd.Step] = append(s.perStep[sd.Step], int32(i))
	}
	for st := range s.perStep {
		bucket := s.perStep[st]
		// Stable (eligible time, plan index) order: the plan index
		// tie-break keeps activation deterministic for equal times.
		for i := 1; i < len(bucket); i++ {
			for j := i; j > 0; j-- {
				a, b := bucket[j-1], bucket[j]
				if s.elig[a] < s.elig[b] || (s.elig[a] == s.elig[b] && a < b) {
					break
				}
				bucket[j-1], bucket[j] = b, a
			}
		}
	}
	return s
}

// ackSend acknowledges send i at event time at. The tracker sees whole
// cycles, as the cycle backend's injectors report them.
func (s *solver) ackSend(i int32, at float64) {
	s.acked++
	s.tk.Acked(&s.p.Sends[i], toCycle(at))
}

// activate starts every send that is eligible now: its step has
// reached the global frontier and its timestamp has arrived. Acking a
// self-send can advance the frontier, so the scan repeats until a full
// pass makes no progress.
func (s *solver) activate() {
	for {
		progressed := false
		for st := 0; st <= s.tk.Frontier() && st < len(s.perStep); st++ {
			for s.head[st] < len(s.perStep[st]) {
				i := s.perStep[st][s.head[st]]
				if s.elig[i] > s.now+timeEps {
					break
				}
				s.head[st]++
				progressed = true
				sd := &s.p.Sends[i]
				s.tk.Issued(sd.Bytes, s.lines[i])
				if sd.Src == sd.Dst {
					s.ackSend(i, s.now) // local delivery completes at issue
					continue
				}
				s.remaining[i] = float64(sd.Bytes)
				s.active = append(s.active, i)
				s.dirty = true
			}
		}
		if !progressed {
			return
		}
	}
}

// recompute assigns every active flow its weighted max-min fair rate
// by progressive filling: the fair level rises uniformly until some
// segment saturates, flows crossing a saturated segment freeze at
// their current rate, and the level keeps rising for the rest until
// every flow is frozen. Segment and flow iteration order is fixed, so
// the allocation is deterministic.
func (s *solver) recompute() {
	for _, sg := range s.touched {
		s.sumW[sg] = 0
		s.inSeg[sg] = false
	}
	s.touched = s.touched[:0]
	n := s.n
	addW := func(sg int32, w float64) {
		if !s.inSeg[sg] {
			s.inSeg[sg] = true
			s.sumW[sg] = 0
			s.capLeft[sg] = n.cap[sg]
			s.touched = append(s.touched, sg)
		}
		s.sumW[sg] += w
	}
	for _, i := range s.active {
		sd := &s.p.Sends[i]
		addW(int32(n.injBase+sd.Src), 1)
		lg := s.legs[i]
		addW(n.up[sd.Src], s.wFwd[i])
		for _, sg := range n.segs(lg.fwd) {
			addW(sg, s.wFwd[i])
		}
		addW(n.up[sd.Dst], s.wRev[i])
		for _, sg := range n.segs(lg.rev) {
			addW(sg, s.wRev[i])
		}
		s.rate[i] = 0
		s.frozen[i] = false
	}
	unfrozen := len(s.active)
	for unfrozen > 0 {
		delta := math.Inf(1)
		for _, sg := range s.touched {
			if s.sumW[sg] > weightEps {
				if q := s.capLeft[sg] / s.sumW[sg]; q < delta {
					delta = q
				}
			}
		}
		if math.IsInf(delta, 1) {
			return // no loaded segment left (cannot happen: injection segments)
		}
		if delta < 0 {
			delta = 0
		}
		for _, sg := range s.touched {
			if s.sumW[sg] > weightEps {
				s.capLeft[sg] -= delta * s.sumW[sg]
			}
		}
		froze := false
		for _, i := range s.active {
			if s.frozen[i] {
				continue
			}
			s.rate[i] += delta
			if s.blocked(i) {
				s.frozen[i] = true
				froze = true
				unfrozen--
				sd := &s.p.Sends[i]
				s.sumW[n.injBase+sd.Src]--
				lg := s.legs[i]
				s.sumW[n.up[sd.Src]] -= s.wFwd[i]
				for _, sg := range n.segs(lg.fwd) {
					s.sumW[sg] -= s.wFwd[i]
				}
				s.sumW[n.up[sd.Dst]] -= s.wRev[i]
				for _, sg := range n.segs(lg.rev) {
					s.sumW[sg] -= s.wRev[i]
				}
			}
		}
		if !froze {
			return // numerical fallback: treat the allocation as converged
		}
	}
}

// blocked reports whether any segment the flow crosses is exhausted.
func (s *solver) blocked(i int32) bool {
	sd := &s.p.Sends[i]
	if s.exhausted(int32(s.n.injBase + sd.Src)) {
		return true
	}
	n, lg := s.n, s.legs[i]
	if s.exhausted(n.up[sd.Src]) || s.exhausted(n.up[sd.Dst]) {
		return true
	}
	for _, sg := range n.segs(lg.fwd) {
		if s.exhausted(sg) {
			return true
		}
	}
	for _, sg := range n.segs(lg.rev) {
		if s.exhausted(sg) {
			return true
		}
	}
	return false
}

func (s *solver) exhausted(sg int32) bool {
	return s.capLeft[sg] <= capEps*s.n.cap[sg]
}

// Ack min-heap on (at, idx); the index tie-break keeps the pop order
// deterministic for simultaneous acknowledgments.
func ackLess(a, b ackEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.idx < b.idx
}

func (s *solver) pushAck(e ackEvent) {
	s.acks = append(s.acks, e)
	for c := len(s.acks) - 1; c > 0; {
		p := (c - 1) / 2
		if !ackLess(s.acks[c], s.acks[p]) {
			break
		}
		s.acks[c], s.acks[p] = s.acks[p], s.acks[c]
		c = p
	}
}

func (s *solver) popAck() ackEvent {
	top := s.acks[0]
	last := len(s.acks) - 1
	s.acks[0] = s.acks[last]
	s.acks = s.acks[:last]
	for p := 0; ; {
		c := 2*p + 1
		if c >= last {
			break
		}
		if c+1 < last && ackLess(s.acks[c+1], s.acks[c]) {
			c++
		}
		if !ackLess(s.acks[c], s.acks[p]) {
			break
		}
		s.acks[p], s.acks[c] = s.acks[c], s.acks[p]
		p = c
	}
	return top
}

// solve runs the event loop: jump to the next transmission finish,
// send arrival, or acknowledgment return; drain payload at the
// current rates across the jump; recompute rates whenever the active
// set changed.
func (s *solver) solve() error {
	s.activate()
	for s.acked < len(s.p.Sends) {
		if s.dirty {
			s.recompute()
			s.dirty = false
		}
		t := math.Inf(1)
		for _, i := range s.active {
			if s.rate[i] > 0 {
				if ft := s.now + s.remaining[i]/s.rate[i]; ft < t {
					t = ft
				}
			}
		}
		frontier := s.tk.Frontier()
		for st := 0; st <= frontier && st < len(s.perStep); st++ {
			if h := s.head[st]; h < len(s.perStep[st]) {
				if e := s.elig[s.perStep[st][h]]; e < t {
					t = e
				}
			}
		}
		if len(s.acks) > 0 && s.acks[0].at < t {
			t = s.acks[0].at
		}
		if math.IsInf(t, 1) {
			return fmt.Errorf("flow: plan %q stalled at cycle %.0f with %d of %d sends unacknowledged",
				s.p.Name, s.now, len(s.p.Sends)-s.acked, len(s.p.Sends))
		}
		if t > s.limit {
			return fmt.Errorf("flow: cycle limit %d reached", sim.Cycle(s.limit))
		}
		if t > s.now {
			dt := t - s.now
			for _, i := range s.active {
				s.remaining[i] -= s.rate[i] * dt
			}
			s.now = t
		}
		// Transmission finishes: the payload is fully on the wire; the
		// last acknowledgment returns one path round trip later.
		keep := s.active[:0]
		for _, i := range s.active {
			if s.remaining[i] <= byteEps {
				sd := &s.p.Sends[i]
				s.pushAck(ackEvent{at: s.now + s.n.rtt(sd.Src, sd.Dst, s.legs[i]), idx: i})
				s.dirty = true
			} else {
				keep = append(keep, i)
			}
		}
		s.active = keep
		for len(s.acks) > 0 && s.acks[0].at <= s.now+timeEps {
			e := s.popAck()
			s.ackSend(e.idx, e.at)
		}
		s.activate()
	}
	return nil
}

// toCycle converts an event time to integer cycles, snapping exact
// integers through the epsilon and rounding fractional times up (an
// event mid-cycle is observed at the cycle's end).
func toCycle(x float64) sim.Cycle {
	if x <= 0 {
		return 0
	}
	return sim.Cycle(math.Ceil(x - timeEps))
}
