package sim

// Scheduler runs callbacks at future cycles. Components use it to model
// fixed latencies (cache lookups, TLB probes, DRAM access time) without
// each keeping its own timing wheel.
//
// Almost every event lands within a few hundred cycles of being
// scheduled, so callbacks live in a power-of-two ring of per-cycle
// buckets indexed by cycle — a slice index instead of the map lookup
// per At/Tick that used to show at the top of simulator profiles.
// Drained bucket slices are recycled through a free list, so the
// steady-state scheduler allocates nothing. Events beyond the ring
// window (rare: long compute segments) overflow to a map. A min-heap
// over the distinct pending cycles drives draining and wake hints —
// heap traffic scales with distinct deadlines rather than with events.
//
// Determinism: callbacks scheduled for the same cycle run in scheduling
// order; cycles fire in ascending order. Both hold across the
// ring/overflow split — an overflow bucket migrates as a unit and fires
// before same-cycle ring entries, which can only have been added later
// (the ring window only moves forward).
type Scheduler struct {
	// ring[at&ringMask] holds the callbacks for cycle at, valid for
	// cycles in [base, base+ringSize).
	ring [ringSize][]func(Cycle)
	// base is the first cycle not yet drained; ring slots below it are
	// dead. Scheduling before base clamps to base (the old behavior for
	// past events: fire on the next Tick, still ahead of later cycles,
	// since base precedes every pending cycle).
	base Cycle
	// far holds buckets beyond the ring window, keyed by cycle.
	far     map[Cycle][]func(Cycle)
	keys    wakeHeap // distinct pending cycles, ring and far
	free    [][]func(Cycle)
	pending int
	waker   *Waker
}

const (
	ringSize = 4096
	ringMask = ringSize - 1
)

// NewScheduler returns an empty scheduler; register it with the engine.
func NewScheduler() *Scheduler {
	return &Scheduler{far: make(map[Cycle][]func(Cycle))}
}

// SetWaker implements Ticker: At self-signals the engine, so
// callbacks scheduled from other components' ticks re-arm a sleeping
// scheduler.
func (s *Scheduler) SetWaker(w *Waker) { s.waker = w }

// At schedules fn to run at the given absolute cycle (clamped to run no
// earlier than the next tick).
func (s *Scheduler) At(at Cycle, fn func(now Cycle)) {
	if at < s.base {
		at = s.base
	}
	if at < s.base+ringSize {
		i := at & ringMask
		if len(s.ring[i]) == 0 {
			if s.ring[i] == nil {
				s.ring[i] = s.grabBucket()
			}
			// First entry for this cycle: publish it to the heap,
			// unless an overflow bucket already did.
			if len(s.far) == 0 || s.far[at] == nil {
				s.keys.push(wakeEntry{at: at})
			}
		}
		s.ring[i] = append(s.ring[i], fn)
	} else {
		b := s.far[at]
		if b == nil {
			s.keys.push(wakeEntry{at: at})
		}
		s.far[at] = append(b, fn)
	}
	s.pending++
	s.waker.Wake(at)
}

// grabBucket returns a recycled zero-length bucket, or nil when the
// free list is empty (append then allocates as usual).
func (s *Scheduler) grabBucket() []func(Cycle) {
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return b
	}
	return nil
}

// After schedules fn to run delay cycles after now (minimum 1).
func (s *Scheduler) After(now, delay Cycle, fn func(now Cycle)) {
	if delay < 1 {
		delay = 1
	}
	s.At(now+delay, fn)
}

// Tick implements Ticker, firing every callback due at or before now.
func (s *Scheduler) Tick(now Cycle) bool {
	busy := false
	for len(s.keys) > 0 && s.keys[0].at <= now {
		at := s.keys.pop().at
		// An overflow bucket for this cycle predates any ring entries
		// (the window only moves forward), so it fires first.
		// Callbacks may schedule more work for this same cycle while
		// we drain it; re-reading the bucket each iteration picks
		// those up in order.
		if len(s.far) > 0 && s.far[at] != nil {
			for i := 0; i < len(s.far[at]); i++ {
				s.far[at][i](now)
				s.pending--
				busy = true
			}
			delete(s.far, at)
		}
		ri := at & ringMask
		for i := 0; i < len(s.ring[ri]); i++ {
			s.ring[ri][i](now)
			s.pending--
			busy = true
		}
		if b := s.ring[ri]; b != nil {
			s.ring[ri] = nil
			clear(b)
			s.free = append(s.free, b[:0])
		}
	}
	if s.base <= now {
		s.base = now + 1
	}
	return busy
}

// NextWake implements Ticker.
func (s *Scheduler) NextWake(now Cycle) Cycle {
	if len(s.keys) == 0 {
		return CycleMax
	}
	return s.keys[0].at
}

// Pending returns the number of scheduled callbacks.
func (s *Scheduler) Pending() int { return s.pending }
