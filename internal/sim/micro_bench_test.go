package sim

import "testing"

func BenchmarkQueuePushPop(b *testing.B) {
	q := NewQueue[int](0, 1)
	now := Cycle(0)
	for i := 0; i < b.N; i++ {
		q.Push(i, now)
		now++
		q.Pop(now)
	}
}

func BenchmarkQueueDeepBacklog(b *testing.B) {
	q := NewQueue[int](0, 1)
	for i := 0; i < 4096; i++ {
		q.Push(i, 0)
	}
	now := Cycle(10)
	for i := 0; i < b.N; i++ {
		v, _ := q.Pop(now)
		q.Push(v, now)
		now++
	}
}

func BenchmarkSchedulerClusteredEvents(b *testing.B) {
	s := NewScheduler()
	e := NewEngine()
	e.Register("s", s)
	nop := func(Cycle) {}
	for i := 0; i < b.N; i++ {
		now := e.Now()
		// Typical shape: many events landing on few distinct cycles.
		for j := 0; j < 16; j++ {
			s.After(now, Cycle(1+j%4*25), nop)
		}
		e.Step()
	}
}

func BenchmarkEngineIdleSkip(b *testing.B) {
	e := NewEngine()
	s := NewScheduler()
	e.Register("s", s)
	for i := 0; i < b.N; i++ {
		s.At(e.Now()+1000, func(Cycle) {})
		e.Run(1000)
	}
}

func BenchmarkQueuePopReady(b *testing.B) {
	q := NewQueue[int](0, 1)
	now := Cycle(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(i, now)
		now++
		if _, ok := q.Peek(now); ok {
			q.PopReady()
		}
	}
}

// benchTicker wakes every `period` cycles and is busy for one tick.
type benchTicker struct {
	period Cycle
	next   Cycle
	ticks  int
}

func (t *benchTicker) Tick(now Cycle) bool {
	if now < t.next {
		return false
	}
	t.next = now + t.period
	t.ticks++
	return true
}

func (t *benchTicker) NextWake(now Cycle) Cycle { return t.next }

// BenchmarkEngineSparseWakes is the wake engine's home turf: 64 hinted
// components each busy once every 512 cycles. The tick-everything
// engine paid 64 no-op Tick calls per cycle here; the wake engine
// touches only due components. Reported per simulated cycle.
func BenchmarkEngineSparseWakes(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.Register("t", &benchTicker{period: 512, next: Cycle(i * 8)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(Cycle(b.N))
}

// hotTicker is hint-less: the engine must call it every processed cycle.
type hotTicker struct{ ticks int }

func (t *hotTicker) Tick(now Cycle) bool { t.ticks++; return true }

// BenchmarkEngineAllHot measures the wake machinery's overhead in the
// engine's worst case: every component hint-less and always busy, so
// nothing can ever be skipped. This bounds the regression the wake
// structure can inflict on fully-busy systems.
func BenchmarkEngineAllHot(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.Register("h", &hotTicker{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(Cycle(b.N))
}

// parkTicker hints CycleMax (never wakes on its own); only its Waker can
// get it ticked.
type parkTicker struct{ ticks int }

func (t *parkTicker) Tick(now Cycle) bool    { t.ticks++; return false }
func (t *parkTicker) NextWake(_ Cycle) Cycle { return CycleMax }

// BenchmarkEngineSignal measures the producer signal path: re-arming a
// parked ticker through the Waker that Register returned.
func BenchmarkEngineSignal(b *testing.B) {
	e := NewEngine()
	ws := make([]*Waker, 32)
	for i := range ws {
		ws[i] = e.Register("t", &parkTicker{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws[i%len(ws)].Wake(e.Now() + 1)
		e.Step()
	}
}
