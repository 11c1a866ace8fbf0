package sim

import (
	"fmt"
	"testing"
)

// This file pins the wake-scheduled engine to the semantics of the
// historical tick-everything engine with an executable reference: the
// old Step/RunUntil loop, which ticks every component on every
// processed cycle and, after a fully idle round, jumps to the minimum
// of all hints. Identical component scenarios run on both engines and
// must produce identical busy-tick event sequences, the same number of
// processed cycles and identical results — while the wake engine must
// demonstrably skip no-op ticks.
//
// The reference asks for hints after it advances its clock, the wake
// engine before, so every scenario ticker hints an exact absolute
// cycle derived from its own state, never one relative to now.

// refEngine is the old tick-everything engine, kept as the behavioral
// oracle. It hands out no Wakers: the old engine had none.
type refEngine struct {
	now     Cycle
	rounds  int64 // processed cycles
	tickers []Ticker
}

func (e *refEngine) Register(t Ticker) { e.tickers = append(e.tickers, t) }

func (e *refEngine) Step() bool {
	busy := false
	for _, t := range e.tickers {
		if t.Tick(e.now) {
			busy = true
		}
	}
	e.now++
	e.rounds++
	return busy
}

func (e *refEngine) nextWake() Cycle {
	wake := CycleMax
	for _, t := range e.tickers {
		wake = min(wake, t.NextWake(e.now))
	}
	return wake
}

func (e *refEngine) RunUntil(done func() bool, limit Cycle) (Cycle, error) {
	for e.now < limit {
		if done() {
			return e.now, nil
		}
		if !e.Step() {
			wake := e.nextWake()
			if wake == CycleMax {
				if done() {
					return e.now, nil
				}
				return e.now, fmt.Errorf("deadlock at %d", e.now)
			}
			if wake > e.now {
				e.now = wake
			}
		}
	}
	if done() {
		return e.now, nil
	}
	return e.now, fmt.Errorf("limit %d", limit)
}

// event is one Tick invocation observed by the scenario log.
type event struct {
	name string
	at   Cycle
	busy bool
}

// scenario is one full component set plus its shared observation log.
type scenario struct {
	log    []event
	ticks  map[string]int // total Tick invocations per component
	pulse  *pulse
	sched  *Scheduler
	relayA *relay
	relayB *relay
	mod    *modTicker
}

// pulse does work at scripted absolute cycles and hints exactly.
type pulse struct {
	s     *scenario
	times []Cycle // ascending
}

func (p *pulse) Tick(now Cycle) bool {
	p.s.ticks["pulse"]++
	busy := false
	for len(p.times) > 0 && p.times[0] <= now {
		p.times = p.times[1:]
		busy = true
	}
	p.s.log = append(p.s.log, event{"pulse", now, busy})
	return busy
}

func (p *pulse) NextWake(now Cycle) Cycle {
	if len(p.times) == 0 {
		return CycleMax
	}
	return p.times[0]
}

func (p *pulse) SetWaker(*Waker) {}

// relay consumes its input queue and forwards items with remaining hops
// to an output queue — the producer/consumer Signal path.
type relay struct {
	s    *scenario
	name string
	in   *Queue[int]
	out  *Queue[int] // nil for a sink
}

func (r *relay) Tick(now Cycle) bool {
	r.s.ticks[r.name]++
	busy := false
	for {
		v, ok := r.in.Peek(now)
		if !ok {
			break
		}
		if r.out != nil && v > 0 {
			if !r.out.Push(v-1, now) {
				break
			}
		}
		r.in.PopReady()
		busy = true
	}
	r.s.log = append(r.s.log, event{r.name, now, busy})
	return busy
}

func (r *relay) NextWake(now Cycle) Cycle { return r.in.NextReady() }
func (r *relay) SetWaker(w *Waker)        { r.in.SetWaker(w) }

// modTicker is busy on every tenth cycle up to until, and hints each
// one exactly.
type modTicker struct {
	s     *scenario
	next  Cycle // next busy cycle; CycleMax once past until
	until Cycle
}

func (m *modTicker) Tick(now Cycle) bool {
	m.s.ticks["mod"]++
	busy := now == m.next
	if busy {
		m.next += 10
		if m.next > m.until {
			m.next = CycleMax
		}
	}
	m.s.log = append(m.s.log, event{"mod", now, busy})
	return busy
}

func (m *modTicker) NextWake(Cycle) Cycle { return m.next }
func (m *modTicker) SetWaker(*Waker)      {}

// buildScenario wires one scenario instance through register. The wake
// engine's Register hands every component its Waker, which wires the
// queues; the reference leaves them unwired.
func buildScenario(register func(Ticker)) *scenario {
	s := &scenario{ticks: make(map[string]int)}
	q1 := NewQueue[int](4, 1)
	q2 := NewQueue[int](4, 3)
	s.sched = NewScheduler()
	s.pulse = &pulse{s: s, times: []Cycle{3, 50, 51, 200}}
	s.relayA = &relay{s: s, name: "relayA", in: q1, out: q2}
	s.relayB = &relay{s: s, name: "relayB", in: q2}
	s.mod = &modTicker{s: s, until: 30}

	// Scheduler events: a push into the relay chain, a nested
	// reschedule, and a long-latency event landing in an idle stretch.
	s.sched.At(10, func(at Cycle) { q1.Push(3, at) })
	s.sched.At(40, func(at Cycle) {
		s.sched.At(45, func(at2 Cycle) { q1.Push(1, at2) })
	})
	s.sched.At(170, func(at Cycle) { q1.Push(0, at) })

	register(s.sched)
	register(s.pulse)
	register(s.relayA)
	register(s.relayB)
	register(s.mod)
	return s
}

// busyEvents filters the log to ticks that did work.
func busyEvents(log []event) []event {
	var out []event
	for _, ev := range log {
		if ev.busy {
			out = append(out, ev)
		}
	}
	return out
}

func TestWakeEngineMatchesReferenceSemantics(t *testing.T) {
	ref := &refEngine{}
	refS := buildScenario(ref.Register)

	eng := NewEngine()
	i := 0
	engS := buildScenario(func(tk Ticker) {
		eng.Register(fmt.Sprintf("c%d", i), tk)
		i++
	})

	const limit = 400
	refCycle, refErr := ref.RunUntil(func() bool { return false }, limit)
	engCycle, engErr := eng.RunUntil(func() bool { return false }, limit)

	if refCycle != engCycle || (refErr == nil) != (engErr == nil) {
		t.Fatalf("RunUntil diverged: ref (%d, %v) vs wake (%d, %v)", refCycle, refErr, engCycle, engErr)
	}
	refBusy, engBusy := busyEvents(refS.log), busyEvents(engS.log)
	if len(refBusy) != len(engBusy) {
		t.Fatalf("busy event count diverged: ref %d vs wake %d\nref: %v\nwake: %v",
			len(refBusy), len(engBusy), refBusy, engBusy)
	}
	for i := range refBusy {
		if refBusy[i] != engBusy[i] {
			t.Fatalf("busy event %d diverged: ref %+v vs wake %+v", i, refBusy[i], engBusy[i])
		}
	}
	if got, want := eng.Rounds(), ref.rounds; got != want {
		t.Errorf("Rounds() = %d, reference processed %d cycles", got, want)
	}

	// The scenarios agreed cycle-for-cycle; the wake engine must have
	// done so while skipping no-op ticks the reference paid for.
	for _, name := range []string{"pulse", "relayA", "relayB", "mod"} {
		if engS.ticks[name] >= refS.ticks[name] {
			t.Errorf("%s: wake engine ticked %d times, reference %d — no skipping happened",
				name, engS.ticks[name], refS.ticks[name])
		}
	}
}

// TestWakeEngineMatchesReferenceAllHinted re-runs the comparison on a
// sparser scenario whose work drains well before the limit, exercising
// the deadlock-detection path and long idle jumps.
func TestWakeEngineMatchesReferenceAllHinted(t *testing.T) {
	build := func(register func(Ticker)) *scenario {
		s := &scenario{ticks: make(map[string]int)}
		q1 := NewQueue[int](4, 1)
		q2 := NewQueue[int](4, 3)
		s.sched = NewScheduler()
		s.pulse = &pulse{s: s, times: []Cycle{3, 200}}
		s.relayA = &relay{s: s, name: "relayA", in: q1, out: q2}
		s.relayB = &relay{s: s, name: "relayB", in: q2}
		s.sched.At(100, func(at Cycle) { q1.Push(2, at) })
		register(s.sched)
		register(s.pulse)
		register(s.relayA)
		register(s.relayB)
		return s
	}

	ref := &refEngine{}
	refS := build(ref.Register)
	eng := NewEngine()
	i := 0
	engS := build(func(tk Ticker) {
		eng.Register(fmt.Sprintf("c%d", i), tk)
		i++
	})

	// All work drains before the limit: both engines must deadlock-stop
	// at the same cycle with equivalent errors.
	refCycle, refErr := ref.RunUntil(func() bool { return false }, 10000)
	engCycle, engErr := eng.RunUntil(func() bool { return false }, 10000)
	if refCycle != engCycle || (refErr == nil) != (engErr == nil) {
		t.Fatalf("RunUntil diverged: ref (%d, %v) vs wake (%d, %v)", refCycle, refErr, engCycle, engErr)
	}
	refBusy, engBusy := busyEvents(refS.log), busyEvents(engS.log)
	if fmt.Sprint(refBusy) != fmt.Sprint(engBusy) {
		t.Fatalf("busy events diverged:\nref:  %v\nwake: %v", refBusy, engBusy)
	}
}
