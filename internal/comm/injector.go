package comm

import (
	"sort"

	"netcrafter/internal/gpu"
	"netcrafter/internal/obs"
	"netcrafter/internal/obs/timeline"
	"netcrafter/internal/sim"
	"netcrafter/internal/txn"
)

// The execution layer: one Injector per participant GPU, registered on
// the wake-scheduled engine alongside the machine it drives. An
// injector walks its GPU's send sequence in (step, time) order and
// issues each send as line-sized posted remote writes through the
// GPU's RDMA engine, each line under its own pooled transaction whose
// acknowledgment (the WriteRsp unwinding the frame stack) returns to
// the injector. A shared Tracker holds the global step frontier — the
// bulk-synchronous barrier of collective plans — and the per-request
// completion state of open-loop plans.

// LinesPerCycle caps line writes one injector issues per cycle — the
// NIC-side packetization rate (2 lines/cycle = 128 B/cycle = 128 GB/s
// at the 1 GHz clock, matching the intra-cluster tier). The flow
// backend caps each source's injection at the same rate.
const LinesPerCycle = 2

// window caps unacknowledged line writes per injector (the posted-write
// window; acknowledgments open it back up).
const window = 64

// Options wires plan execution into the host system.
type Options struct {
	// Start is the engine cycle corresponding to plan time 0 (the
	// runner stamps it; plans themselves are relative).
	Start sim.Cycle
	// AddrOf maps (dst GPU, per-source stream offset) to a physical
	// address homed on dst. Supplied by the cluster runner — address
	// layout is the system's business, not the plan's.
	AddrOf func(dst int, off uint64) uint64
	// Hist, when non-nil, observes every completed request's latency
	// (cycles) — the registry-facing view of the tail.
	Hist *obs.Hist
	// Dwell, when non-nil, records each request's arrival-to-
	// completion interval as a timeline dwell, so request lifecycles
	// line up with link utilization in trace exports.
	Dwell *timeline.Track
}

// Tracker is the shared run state of one executing plan: the global
// step frontier, per-request completion, and the byte/line totals.
type Tracker struct {
	plan *Plan
	opt  Options

	// stepLeft[s] counts unacknowledged sends in step s across all
	// GPUs; frontier is the lowest incomplete step. Injectors only
	// issue sends of steps <= frontier, which makes each step a global
	// barrier: a collective's step s+1 starts only after every step-s
	// transfer in the whole plan is acknowledged.
	stepLeft []int
	frontier int

	// reqLeft[r] counts request r's unacknowledged transfers; latency
	// is stamped when the count reaches zero.
	reqLeft   []int
	latency   []sim.Cycle
	completed int

	injLeft int
	last    sim.Cycle // latest acknowledgment or completion (makespan)
	bytes   int64
	lines   int64
	wakers  []*sim.Waker
}

// NewTracker prepares the run state for one plan execution.
func NewTracker(p *Plan, opt Options) *Tracker {
	tk := &Tracker{plan: p, opt: opt, last: opt.Start}
	maxStep := -1
	for _, s := range p.Sends {
		if s.Step > maxStep {
			maxStep = s.Step
		}
	}
	tk.stepLeft = make([]int, maxStep+1)
	for _, s := range p.Sends {
		tk.stepLeft[s.Step]++
	}
	tk.reqLeft = make([]int, len(p.Requests))
	tk.latency = make([]sim.Cycle, len(p.Requests))
	for _, s := range p.Sends {
		if s.Req >= 0 {
			tk.reqLeft[s.Req]++
		}
	}
	for r := range tk.latency {
		tk.latency[r] = -1
	}
	tk.advance()
	return tk
}

// Frontier returns the lowest step with unacknowledged sends (== one
// past the last step when the plan has drained).
func (tk *Tracker) Frontier() int { return tk.frontier }

// Done reports whether every injector has drained.
func (tk *Tracker) Done() bool { return tk.injLeft == 0 }

// advance moves the frontier past fully acknowledged (or empty) steps.
func (tk *Tracker) advance() bool {
	moved := false
	for tk.frontier < len(tk.stepLeft) && tk.stepLeft[tk.frontier] == 0 {
		tk.frontier++
		moved = true
	}
	return moved
}

// acked records one send fully acknowledged at cycle at: step
// accounting, request completion, and — when the step frontier moves —
// a wake for every injector that may have been barrier-blocked.
func (tk *Tracker) acked(s *Send, at sim.Cycle) {
	tk.stepLeft[s.Step]--
	if at > tk.last {
		tk.last = at
	}
	if s.Req >= 0 {
		tk.reqLeft[s.Req]--
		if tk.reqLeft[s.Req] == 0 {
			req := &tk.plan.Requests[s.Req]
			arrived := tk.opt.Start + req.Arrival
			lat := at - arrived
			tk.latency[s.Req] = lat
			tk.completed++
			if tk.opt.Hist != nil {
				tk.opt.Hist.Observe(float64(lat))
			}
			tk.opt.Dwell.Dwell(arrived, lat, uint64(s.Req))
		}
	}
	if tk.advance() {
		for _, w := range tk.wakers {
			w.Wake(at + 1)
		}
	}
}

// issued accounts one line write entering the fabric.
func (tk *Tracker) issued(bytes int) {
	tk.bytes += int64(bytes)
	tk.lines++
}

// injectorDone marks one injector fully drained.
func (tk *Tracker) injectorDone(at sim.Cycle) {
	tk.injLeft--
	if at > tk.last {
		tk.last = at
	}
}

// Result assembles the run's measurements; call after Done.
func (tk *Tracker) Result() *Result {
	r := &Result{
		Plan:       tk.plan.Name,
		GPUs:       tk.plan.GPUs,
		Sends:      len(tk.plan.Sends),
		LineWrites: tk.lines,
		BytesMoved: tk.bytes,
		Cycles:     tk.last - tk.opt.Start,
		Requests:   len(tk.plan.Requests),
		Incomplete: len(tk.plan.Requests) - tk.completed,
	}
	for _, l := range tk.latency {
		if l >= 0 {
			r.Latencies = append(r.Latencies, l)
		}
	}
	sort.Slice(r.Latencies, func(i, j int) bool { return r.Latencies[i] < r.Latencies[j] })
	return r
}

// injectorRole is the single continuation role an injector parks on
// its transactions; Arg is the send's index in its sequence.
const injectorRole uint16 = 0

// Injector drives one GPU's share of a plan. It implements sim.Ticker
// and txn.Handler.
type Injector struct {
	gpuID   int
	tracker *Tracker
	rdma    *gpu.RDMA
	table   *txn.Table
	opt     Options

	// sends is this GPU's slice of the plan, ordered by (Step, At),
	// ties in plan order.
	sends []Send
	// ackLeft[i] counts sends[i]'s lines not yet acknowledged; the
	// send is acked (step/request accounting) when it reaches zero
	// with every line issued.
	ackLeft []int
	// next/offset form the issue cursor: sends[next] has offset bytes
	// already issued as lines.
	next   int
	offset int
	// nextOff is the per-source address stream: each line write lands
	// on a fresh line-aligned offset so writes never collide.
	nextOff  uint64
	inflight int
	waker    *sim.Waker
	done     bool
}

// NewInjector builds the injector for one participant GPU and accounts
// it with the tracker.
func NewInjector(gpuID int, p *Plan, tk *Tracker, r *gpu.RDMA, tbl *txn.Table, opt Options) *Injector {
	inj := &Injector{gpuID: gpuID, tracker: tk, rdma: r, table: tbl, opt: opt}
	for _, s := range p.Sends {
		if s.Src == gpuID {
			inj.sends = append(inj.sends, s)
		}
	}
	sort.SliceStable(inj.sends, func(i, j int) bool {
		if inj.sends[i].Step != inj.sends[j].Step {
			return inj.sends[i].Step < inj.sends[j].Step
		}
		return inj.sends[i].At < inj.sends[j].At
	})
	inj.ackLeft = make([]int, len(inj.sends))
	for i, s := range inj.sends {
		inj.ackLeft[i] = (s.Bytes + LineBytes - 1) / LineBytes
	}
	tk.injLeft++
	return inj
}

// SetWaker implements sim.Ticker; the tracker also keeps the waker
// so step-frontier advances re-arm barrier-blocked injectors.
func (inj *Injector) SetWaker(w *sim.Waker) {
	inj.waker = w
	inj.tracker.wakers = append(inj.tracker.wakers, w)
}

// Tick implements sim.Ticker: issue up to LinesPerCycle line writes
// from the cursor, stopping at the step frontier, a future timestamp,
// or a full posted-write window.
func (inj *Injector) Tick(now sim.Cycle) bool {
	if inj.done {
		return false
	}
	busy := false
	budget := LinesPerCycle
	for budget > 0 && inj.next < len(inj.sends) {
		s := &inj.sends[inj.next]
		if s.Step > inj.tracker.Frontier() {
			break // barrier: an earlier step still has transfers in flight
		}
		if inj.opt.Start+s.At > now {
			break // not yet arrived
		}
		if s.Src == s.Dst {
			// Local delivery: no network, complete at issue.
			inj.tracker.issued(s.Bytes)
			inj.tracker.acked(s, now)
			inj.next, inj.offset = inj.next+1, 0
			budget--
			busy = true
			continue
		}
		if inj.inflight >= window {
			break // window full: the next acknowledgment reopens it
		}
		line := s.Bytes - inj.offset
		if line > LineBytes {
			line = LineBytes
		}
		t := inj.table.Acquire(txn.KindWrite, now)
		t.PAddr = inj.opt.AddrOf(s.Dst, inj.nextOff)
		t.Size = line
		t.OriginGPU = inj.gpuID
		t.Push(inj, injectorRole, uint64(inj.next), nil)
		inj.rdma.WriteRemoteTxn(t, now)
		inj.nextOff += LineBytes
		inj.inflight++
		inj.tracker.issued(line)
		inj.offset += line
		budget--
		busy = true
		if inj.offset >= s.Bytes {
			inj.next, inj.offset = inj.next+1, 0
		}
	}
	if inj.next == len(inj.sends) && inj.inflight == 0 {
		inj.done = true
		inj.tracker.injectorDone(now)
		busy = true
	}
	return busy
}

// NextWake implements sim.Ticker. Blocked states return CycleMax:
// the unblocking event (an acknowledgment via OnComplete, a frontier
// advance via the tracker) wakes the injector explicitly.
func (inj *Injector) NextWake(now sim.Cycle) sim.Cycle {
	if inj.done {
		return sim.CycleMax
	}
	if inj.next >= len(inj.sends) {
		if inj.inflight == 0 {
			return now // final tick marks the injector drained
		}
		return sim.CycleMax
	}
	s := &inj.sends[inj.next]
	if s.Step > inj.tracker.Frontier() {
		return sim.CycleMax
	}
	if s.Src != s.Dst && inj.inflight >= window {
		return sim.CycleMax
	}
	if at := inj.opt.Start + s.At; at > now {
		return at
	}
	return now
}

// OnComplete implements txn.Handler: a line write's WriteRsp arrived
// and the RDMA engine unwound the frame stack back to us. The send is
// acked once its last line is.
func (inj *Injector) OnComplete(t *txn.Transaction, f txn.Frame, at sim.Cycle) {
	inj.inflight--
	idx := int(f.Arg)
	inj.ackLeft[idx]--
	if inj.ackLeft[idx] == 0 {
		inj.tracker.acked(&inj.sends[idx], at)
	}
	t.Release()
	inj.waker.Wake(at + 1)
}
