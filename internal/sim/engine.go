// Package sim provides the deterministic wake-scheduled simulation
// engine that every other component of the simulator runs on.
//
// The engine model: components implement Ticker and are ticked in
// registration order — but only on cycles at which they can possibly
// make progress. The engine keeps a min-ordered wake structure (cycle,
// registration index) over all tickers; each processed cycle it ticks
// exactly the components whose cached wake cycle is due, then re-arms
// each from its NextWake hint. Producers re-arm sleeping consumers
// through Waker handles (every Queue push signals its consumer), so an
// idle component costs nothing while traffic flows elsewhere.
//
// Determinism comes from three invariants:
//
//  1. Registration-order ties: within a cycle, due components tick in
//     registration order, exactly as the historical tick-everything
//     loop did. Registration order is part of the simulated machine's
//     definition.
//  2. N+1 visibility: anything enqueued during cycle N becomes visible
//     no earlier than cycle N+1 (enforced by Queue), so tick order
//     within a cycle cannot create zero-latency communication, and a
//     signal can never require re-ticking a component in the cycle
//     that already passed it.
//  3. The no-op contract: a component's Tick must be a pure no-op
//     (returning false) on any cycle earlier than its reported
//     NextWake, given no new input. NextWake must never be later than
//     the first cycle the component would act — "exact or early,
//     never late". External input into a sleeping component must
//     wake it through its Waker (wired automatically for components
//     that implement WakerAware). Under this contract, skipped ticks
//     are exactly the ticks that would have done nothing, and the
//     wake-scheduled run is cycle-for-cycle identical to ticking
//     everything.
//
// Components without a WakeHinter stay in an always-hot set and are
// ticked on every processed cycle, preserving the historical semantics
// (including the idle-stretch behavior of the old loop, which consulted
// hints only after a fully idle round).
package sim

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Cycle is a point in simulated time, measured in clock cycles of the
// 1 GHz system clock used throughout the simulator.
type Cycle int64

// CycleMax is the largest representable cycle, used as "never".
const CycleMax = Cycle(math.MaxInt64)

// Ticker is a component driven by the engine. Tick is called on cycles
// when the component may have work. It must return true if the
// component made progress (moved, produced, or consumed anything)
// during this cycle; the engine uses this to fast-forward across fully
// idle periods.
type Ticker interface {
	Tick(now Cycle) bool
}

// WakeHinter is implemented by Tickers that know the next cycle at
// which they could possibly make progress (e.g. a timer or a queue
// with a known ready time). The engine skips a hinted ticker entirely
// until its hint (or its Waker) says it is due. Returning CycleMax
// means "no pending work". Hints must be exact or early, never late:
// a hint later than the first cycle the component would act at loses
// work (see the package no-op contract). Tickers without a WakeHinter
// are ticked on every processed cycle.
type WakeHinter interface {
	NextWake(now Cycle) Cycle
}

// WakerAware components receive a Waker handle when registered with an
// engine. Implementations use it to wire their input queues (via
// Queue.SetWaker) so producers re-arm them, and may keep the handle to
// self-signal from code that runs outside their own Tick (e.g. the
// Scheduler's At). SetWaker is called once, during Register.
type WakerAware interface {
	SetWaker(w *Waker)
}

// Waker is a handle that re-arms one registered ticker. Producers hold
// the consumer's Waker (usually indirectly, through Queue.SetWaker)
// and call Wake when they hand it work, so the consumer need not poll.
// A nil *Waker is valid and inert, so unregistered components work
// unchanged. Wakers are not safe for concurrent use; the engine is
// single-threaded by contract.
type Waker struct {
	e   *Engine
	idx int
}

// Wake arms the ticker to run no later than cycle at. Arming is
// monotone (the earliest requested cycle wins) and cheap; spurious
// wakes are harmless no-op ticks. An at of CycleMax is ignored.
func (w *Waker) Wake(at Cycle) {
	if w == nil {
		return
	}
	w.e.arm(w.idx, at)
}

// Rounds returns the number of tick rounds the engine has processed so
// far (see Engine.Rounds). Components whose arbitration state must
// advance once per processed round even while they sleep (e.g. a
// round-robin pointer) derive it from this counter instead of counting
// their own ticks.
func (w *Waker) Rounds() int64 {
	if w == nil {
		return 0
	}
	return w.e.rounds
}

// wakeEntry is one pending wake in the engine's min-heap.
type wakeEntry struct {
	at  Cycle
	idx int
}

// Engine drives a set of Tickers through simulated time.
type Engine struct {
	now     Cycle
	tickers []Ticker
	// hints[i] is tickers[i]'s WakeHinter, nil for always-hot tickers.
	// Cached at registration so the hot loop never type-asserts.
	hints []WakeHinter
	names []string

	// wakeAt[i] is the authoritative armed wake cycle of ticker i
	// (CycleMax = parked). The heap holds (cycle, index) entries with
	// lazy deletion: an entry is live iff its cycle equals wakeAt[idx].
	wakeAt []Cycle
	heap   []wakeEntry
	// near holds indices armed for the immediately next round (the
	// overwhelmingly common arm: a busy component or fresh queue push
	// re-arming for now+1). Keeping them out of the heap makes the
	// steady-state cost of a busy component O(1) per cycle with no
	// sift traffic; the heap only carries genuinely future wakes
	// (pipeline delays, DRAM latencies, pool deadlines).
	near []int
	// hot holds the registration indices of hint-less tickers, which
	// are due on every processed cycle.
	hot []int
	// due is per-round scratch, reused across rounds.
	due []int

	// rounds counts processed tick rounds. The old tick-everything loop
	// ticked every component once per round, so "ticks seen" was this
	// same number; sleeping components that need it (Waker.Rounds) now
	// read the counter instead.
	rounds int64

	// wall accumulates the host wall-clock time spent inside RunUntil
	// and Run, so a finished engine can self-report its simulation
	// throughput (simulated cycles per host second). The clock is read
	// once on entry and once on exit of each drive call, never in the
	// per-cycle loop, so the hot path is unaffected.
	wall time.Duration

	// Observability hooks (see profile.go). observed caches
	// "probe != nil || profiling" so the hot loop pays one predictable
	// branch when both are off.
	probe     TickProbe
	profiling bool
	observed  bool
	costs     []componentCost
}

// NewEngine returns an engine at cycle 0 with no components.
func NewEngine() *Engine {
	return &Engine{}
}

// Register adds a component to the tick list and returns its Waker.
// Components are ticked in registration order; registration order is
// therefore part of the simulated machine's definition and must be
// deterministic. If the component implements WakerAware it receives
// its own Waker before Register returns. The returned Waker may be
// ignored by callers that do not need to signal the component.
func (e *Engine) Register(name string, t Ticker) *Waker {
	if t == nil {
		panic("sim: Register called with nil ticker")
	}
	idx := len(e.tickers)
	e.tickers = append(e.tickers, t)
	e.names = append(e.names, name)
	h, _ := t.(WakeHinter)
	e.hints = append(e.hints, h)
	e.wakeAt = append(e.wakeAt, CycleMax)
	if h == nil {
		e.hot = append(e.hot, idx)
	} else {
		// Arm for the current cycle: every component gets a first tick,
		// after which its own hint takes over.
		e.arm(idx, e.now)
	}
	w := &Waker{e: e, idx: idx}
	if aw, ok := t.(WakerAware); ok {
		aw.SetWaker(w)
	}
	return w
}

// arm schedules ticker idx to run no later than cycle at. Earliest
// request wins; stale heap and near entries are dropped lazily (an
// entry is live iff it matches wakeAt).
func (e *Engine) arm(idx int, at Cycle) {
	if at >= e.wakeAt[idx] {
		return // already armed at least this early
	}
	e.wakeAt[idx] = at
	if at <= e.now+1 {
		e.near = append(e.near, idx)
	} else if at != CycleMax {
		e.heapPush(wakeEntry{at: at, idx: idx})
	}
}

// Now returns the current cycle.
func (e *Engine) Now() Cycle { return e.now }

// Components returns the number of registered tickers.
func (e *Engine) Components() int { return len(e.tickers) }

// Rounds returns the number of tick rounds processed so far. The
// engine processes a round for every cycle it does not skip; skipped
// cycles (those no component could act in) do not count, exactly as
// they never produced ticks under the historical tick-everything loop.
func (e *Engine) Rounds() int64 { return e.rounds }

// Step advances simulated time by exactly one cycle, ticking every
// component that is due (hint-less components and components whose
// wake cycle has arrived — by the no-op contract, exactly the set
// whose Tick could do anything). It reports whether any component made
// progress.
func (e *Engine) Step() bool {
	busy := e.round()
	e.now++
	return busy
}

// round runs one tick round at the current cycle: collect due
// components, tick them in registration order, re-arm each from its
// hint.
func (e *Engine) round() bool {
	due := e.due[:0]
	// In-place filter: due entries move to due and disarm; entries
	// armed for a future cycle (an arm made outside a round — e.g. a
	// queue push between RunUntil calls — lands at now+1 relative to
	// its own arm time, which can still be ahead of this round) are
	// retained; stale duplicates (wakeAt already CycleMax) drop.
	keep := e.near[:0]
	for _, idx := range e.near {
		if e.wakeAt[idx] <= e.now {
			due = append(due, idx)
			// Disarm while ticking; signals received during the round
			// and the post-tick re-arm both go through arm().
			e.wakeAt[idx] = CycleMax
		} else if e.wakeAt[idx] != CycleMax {
			keep = append(keep, idx)
		}
	}
	e.near = keep
	for len(e.heap) > 0 && e.heap[0].at <= e.now {
		ent := e.heapPop()
		if e.wakeAt[ent.idx] == ent.at {
			due = append(due, ent.idx)
			e.wakeAt[ent.idx] = CycleMax
		}
	}
	due = append(due, e.hot...)
	if len(due) > 1 {
		sort.Ints(due)
	}
	e.due = due

	busy := false
	for _, idx := range due {
		var b bool
		if e.observed {
			b = e.tickObserved(idx)
		} else {
			b = e.tickers[idx].Tick(e.now)
		}
		if b {
			busy = true
		}
		if h := e.hints[idx]; h != nil {
			w := h.NextWake(e.now)
			if w <= e.now {
				// Work is pending but blocked (or already handled this
				// round); one tick per cycle, so next chance is now+1.
				w = e.now + 1
			}
			e.arm(idx, w)
		}
	}
	e.rounds++
	return busy
}

// nextDue returns the earliest cycle any component could act, or
// CycleMax when every component is parked. With a hint-less ticker
// registered the engine can never skip more than one cycle, matching
// the historical loop's behavior for unhinted components.
func (e *Engine) nextDue() Cycle {
	if len(e.hot) > 0 {
		return e.now + 1
	}
	if len(e.near) > 0 {
		// Armed during the round that just finished, so due no later
		// than the next round; returning now suppresses any skip.
		return e.now
	}
	for len(e.heap) > 0 {
		top := e.heap[0]
		if e.wakeAt[top.idx] == top.at {
			return top.at
		}
		e.heapPop() // stale entry
	}
	return CycleMax
}

// NextDue returns the earliest cycle at which any registered component
// could act (see nextDue): now+1 while a hint-less ticker is
// registered, now when anything was armed during the round that just
// ran, the heap minimum otherwise, CycleMax when fully parked. The
// shard coordinator combines every shard's NextDue (plus in-flight
// boundary deliveries) to reproduce RunUntil's idle-skip decisions
// globally.
func (e *Engine) NextDue() Cycle { return e.nextDue() }

// SkipTo advances the clock to cycle at without processing any rounds
// — the idle-skip primitive RunUntil applies after a fully idle round,
// exported so the shard coordinator can apply a globally agreed skip
// to every shard engine. Skipped cycles do not count as rounds, which
// is exactly why the skip decision must be global: per-shard Rounds()
// counters stay equal to the serial engine's only if every shard skips
// the same cycles. SkipTo never moves time backwards.
func (e *Engine) SkipTo(at Cycle) {
	if at > e.now {
		e.now = at
	}
}

// RunUntil advances time until done() reports true or the cycle limit
// is reached. It returns the cycle at which it stopped and an error if
// the limit was hit first. Idle stretches are skipped by jumping
// directly to the earliest armed wake-up cycle.
func (e *Engine) RunUntil(done func() bool, limit Cycle) (Cycle, error) {
	start := time.Now()
	defer func() { e.wall += time.Since(start) }()
	for e.now < limit {
		if done() {
			return e.now, nil
		}
		if !e.Step() {
			// Nothing moved this cycle; fast-forward to the next cycle
			// at which anything could move.
			wake := e.nextDue()
			if wake == CycleMax {
				if done() {
					return e.now, nil
				}
				return e.now, fmt.Errorf("sim: deadlock at cycle %d: no component has pending work", e.now)
			}
			if wake > e.now {
				e.now = wake
			}
		}
	}
	if done() {
		return e.now, nil
	}
	return e.now, fmt.Errorf("sim: cycle limit %d reached", limit)
}

// Run advances time for exactly n cycles (idle skipping still applies
// to the internal clock, but the full n cycles of simulated time
// elapse).
func (e *Engine) Run(n Cycle) {
	start := time.Now()
	defer func() { e.wall += time.Since(start) }()
	end := e.now + n
	for e.now < end {
		if !e.Step() {
			wake := e.nextDue()
			if wake > end {
				wake = end
			}
			if wake > e.now {
				e.now = wake
			}
		}
	}
}

// WallTime returns the host wall-clock time the engine has spent
// driving components (inside RunUntil and Run).
func (e *Engine) WallTime() time.Duration { return e.wall }

// heapPush inserts an entry into the wake min-heap (ordered by cycle,
// then registration index). Hand-rolled to keep entries unboxed —
// container/heap's interface would allocate per push.
func (e *Engine) heapPush(ent wakeEntry) {
	h := append(e.heap, ent)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !wakeLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heap = h
}

// heapPop removes and returns the minimum entry.
func (e *Engine) heapPop() wakeEntry {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && wakeLess(h[l], h[small]) {
			small = l
		}
		if r < n && wakeLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	e.heap = h
	return top
}

func wakeLess(a, b wakeEntry) bool {
	return a.at < b.at || (a.at == b.at && a.idx < b.idx)
}
