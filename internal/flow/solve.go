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

// Send states.
const (
	stWaiting uint8 = iota
	stActive
	stSent  // payload fully on the wire, last acknowledgment in flight
	stAcked // fully acknowledged
)

// ackEvent is one pending last-acknowledgment arrival.
type ackEvent struct {
	at  float64
	idx int32
}

// solver is one Run's private state: per-send bookkeeping mirroring
// comm.Tracker (step frontier, request completion) plus the active
// flow set and the per-segment scratch of the max-min computation.
type solver struct {
	n     *Network
	p     *comm.Plan
	start float64
	limit float64

	// Per send, indexed like p.Sends.
	state     []uint8
	remaining []float64
	rate      []float64
	wFwd      []float64 // forward wire bytes per payload byte
	wRev      []float64 // reverse (ack) wire bytes per payload byte
	lines     []int64
	elig      []float64 // earliest eligible time (start + At)
	legs      []legs    // zero for self-sends
	frozen    []bool

	// Step machinery: perStep[s] lists step-s send indices sorted by
	// (eligible time, index); head[s] is the activation cursor.
	stepLeft []int
	frontier int
	perStep  [][]int32
	head     []int

	// Request completion, mirroring comm.Tracker.
	reqLeft   []int
	latency   []float64
	completed int

	active []int32
	acks   []ackEvent // min-heap on (at, idx)

	// Per-segment scratch, reset via touched between recomputes.
	sumW    []float64
	capLeft []float64
	inSeg   []bool
	touched []int32

	now        float64
	lastAck    float64
	acked      int
	bytes      int64
	lineWrites int64
	dirty      bool
}

func newSolver(n *Network, p *comm.Plan, limit sim.Cycle) *solver {
	ns := len(p.Sends)
	s := &solver{
		n:     n,
		p:     p,
		start: float64(n.opt.Start),
		limit: math.Inf(1),

		state:     make([]uint8, ns),
		remaining: make([]float64, ns),
		rate:      make([]float64, ns),
		wFwd:      make([]float64, ns),
		wRev:      make([]float64, ns),
		lines:     make([]int64, ns),
		elig:      make([]float64, ns),
		legs:      make([]legs, ns),
		frozen:    make([]bool, ns),

		reqLeft: make([]int, len(p.Requests)),
		latency: make([]float64, len(p.Requests)),

		sumW:    make([]float64, len(n.cap)),
		capLeft: make([]float64, len(n.cap)),
		inSeg:   make([]bool, len(n.cap)),
	}
	if limit > 0 {
		s.limit = float64(limit)
	}
	s.now, s.lastAck = s.start, s.start

	maxStep := 0
	for i := range p.Sends {
		sd := &p.Sends[i]
		s.elig[i] = s.start + float64(sd.At)
		if sd.Src == sd.Dst {
			// Local delivery: one tracker-accounting unit, no flow.
			s.lines[i] = 1
		} else {
			s.lines[i], s.wFwd[i], s.wRev[i] = wireCost(sd.Bytes, n.opt.FlitBytes)
			s.wFwd[i] /= float64(sd.Bytes)
			s.wRev[i] /= float64(sd.Bytes)
			s.legs[i] = n.legs(sd.Src, sd.Dst)
		}
		if sd.Step > maxStep {
			maxStep = sd.Step
		}
		if sd.Req >= 0 {
			s.reqLeft[sd.Req]++
		}
	}
	for r := range s.latency {
		s.latency[r] = -1
	}
	s.stepLeft = make([]int, maxStep+1)
	s.perStep = make([][]int32, maxStep+1)
	s.head = make([]int, maxStep+1)
	for i := range p.Sends {
		s.stepLeft[p.Sends[i].Step]++
	}
	// The buckets share one exactly sized backing array.
	flat, lo := make([]int32, ns), 0
	for st, c := range s.stepLeft {
		s.perStep[st] = flat[lo : lo : lo+c]
		lo += c
	}
	for i := range p.Sends {
		st := p.Sends[i].Step
		s.perStep[st] = append(s.perStep[st], int32(i))
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
	s.advanceFrontier()
	return s
}

func (s *solver) advanceFrontier() {
	for s.frontier < len(s.stepLeft) && s.stepLeft[s.frontier] == 0 {
		s.frontier++
	}
}

// ackSend mirrors comm.Tracker.acked: step accounting, request
// completion, frontier advance.
func (s *solver) ackSend(i int32, at float64) {
	sd := &s.p.Sends[i]
	s.state[i] = stAcked
	s.acked++
	s.stepLeft[sd.Step]--
	if at > s.lastAck {
		s.lastAck = at
	}
	if sd.Req >= 0 {
		s.reqLeft[sd.Req]--
		if s.reqLeft[sd.Req] == 0 {
			arrived := s.start + float64(s.p.Requests[sd.Req].Arrival)
			s.latency[sd.Req] = at - arrived
			s.completed++
		}
	}
	s.advanceFrontier()
}

// activate starts every send that is eligible now: its step has
// reached the global frontier and its timestamp has arrived. Acking a
// self-send can advance the frontier, so the scan repeats until a full
// pass makes no progress.
func (s *solver) activate() {
	for {
		progressed := false
		for st := 0; st <= s.frontier && st < len(s.perStep); st++ {
			for s.head[st] < len(s.perStep[st]) {
				i := s.perStep[st][s.head[st]]
				if s.elig[i] > s.now+timeEps {
					break
				}
				s.head[st]++
				progressed = true
				sd := &s.p.Sends[i]
				s.bytes += int64(sd.Bytes)
				s.lineWrites += s.lines[i]
				if sd.Src == sd.Dst {
					s.ackSend(i, s.now) // local delivery completes at issue
					continue
				}
				s.state[i] = stActive
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
		for st := 0; st <= s.frontier && st < len(s.perStep); st++ {
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
				s.state[i] = stSent
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

// result assembles the solver's measurements in comm.Result form,
// field for field what comm.Tracker.Result reports.
func (s *solver) result() *comm.Result {
	r := &comm.Result{
		Plan:       s.p.Name,
		GPUs:       s.p.GPUs,
		Sends:      len(s.p.Sends),
		LineWrites: s.lineWrites,
		BytesMoved: s.bytes,
		Cycles:     toCycle(s.lastAck - s.start),
		Requests:   len(s.p.Requests),
		Incomplete: len(s.p.Requests) - s.completed,
	}
	for _, l := range s.latency {
		if l >= 0 {
			r.Latencies = append(r.Latencies, toCycle(l))
		}
	}
	// Latencies were filled in request order; Result wants them sorted
	// ascending (insertion sort: completion times arrive near-sorted).
	for i := 1; i < len(r.Latencies); i++ {
		for j := i; j > 0 && r.Latencies[j] < r.Latencies[j-1]; j-- {
			r.Latencies[j], r.Latencies[j-1] = r.Latencies[j-1], r.Latencies[j]
		}
	}
	return r
}
