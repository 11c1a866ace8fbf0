package sim

import (
	"testing"
	"testing/quick"
)

func TestSchedulerAfterClampsToOneCycle(t *testing.T) {
	s := NewScheduler()
	ran := Cycle(-1)
	s.After(10, 0, func(now Cycle) { ran = now })
	e := NewEngine()
	e.Register("s", s)
	e.Run(20)
	if ran != 11 {
		t.Fatalf("After(10, 0) ran at %d, want 11", ran)
	}
}

func TestSchedulerSameCycleRescheduling(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(5, func(now Cycle) {
		order = append(order, 1)
		// Scheduling more work for the same due cycle must run within
		// the same tick, after already-queued work.
		s.At(5, func(Cycle) { order = append(order, 3) })
		order = append(order, 2)
	})
	e := NewEngine()
	e.Register("s", s)
	e.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d", s.Pending())
	}
}

func TestSchedulerCrossCycleOrdering(t *testing.T) {
	s := NewScheduler()
	var order []Cycle
	for _, c := range []Cycle{9, 3, 7, 3, 5} {
		c := c
		s.At(c, func(Cycle) { order = append(order, c) })
	}
	e := NewEngine()
	e.Register("s", s)
	e.Run(20)
	want := []Cycle{3, 3, 5, 7, 9}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v want %v", order, want)
		}
	}
}

func TestSchedulerNextWake(t *testing.T) {
	s := NewScheduler()
	if s.NextWake(0) != CycleMax {
		t.Fatal("empty scheduler has a wake time")
	}
	s.At(42, func(Cycle) {})
	if s.NextWake(0) != 42 {
		t.Fatalf("NextWake = %d", s.NextWake(0))
	}
}

// Property: N callbacks at arbitrary cycles all fire exactly once, in
// cycle order, by the time the engine passes the max cycle.
func TestSchedulerFiresAllProperty(t *testing.T) {
	f := func(cycles []uint8) bool {
		s := NewScheduler()
		fired := 0
		lastAt := Cycle(-1)
		okOrder := true
		max := Cycle(0)
		for _, c8 := range cycles {
			at := Cycle(c8)
			if at > max {
				max = at
			}
			s.At(at, func(now Cycle) {
				fired++
				if now < lastAt {
					okOrder = false
				}
				lastAt = now
			})
		}
		e := NewEngine()
		e.Register("s", s)
		e.Run(max + 2)
		return fired == len(cycles) && okOrder && s.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueCompaction pushes and pops through many cycles to exercise
// the ring compaction paths.
func TestQueueCompaction(t *testing.T) {
	q := NewQueue[int](0, 1)
	now := Cycle(0)
	next := 0
	popped := 0
	for round := 0; round < 100; round++ {
		for i := 0; i < 50; i++ {
			q.Push(next, now)
			next++
		}
		now += 2
		for {
			v, ok := q.Pop(now)
			if !ok {
				break
			}
			if v != popped {
				t.Fatalf("popped %d want %d", v, popped)
			}
			popped++
		}
	}
	if popped != next || q.Len() != 0 {
		t.Fatalf("popped %d of %d, %d left", popped, next, q.Len())
	}
}

// TestQueueInterleavedRemoveAt mixes pops and mid-queue removals.
func TestQueueInterleavedRemoveAt(t *testing.T) {
	q := NewQueue[int](0, 1)
	for i := 0; i < 200; i++ {
		q.Push(i, 0)
	}
	seen := map[int]bool{}
	now := Cycle(10)
	for q.Len() > 0 {
		if q.Len() >= 3 {
			if v, ok := q.RemoveAt(2); ok {
				if seen[v] {
					t.Fatalf("duplicate %d", v)
				}
				seen[v] = true
			}
		}
		if v, ok := q.Pop(now); ok {
			if seen[v] {
				t.Fatalf("duplicate %d", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != 200 {
		t.Fatalf("drained %d of 200", len(seen))
	}
}

// TestSchedulerLateCyclesNoAllocs pins the steady-state claim for
// cycles of 256 and more, the values an interface conversion would box:
// scheduling and draining events inside the ring window allocates
// nothing once the bucket free list and the heap are warm.
func TestSchedulerLateCyclesNoAllocs(t *testing.T) {
	s := NewScheduler()
	e := NewEngine()
	e.Register("s", s)
	nop := func(Cycle) {}
	step := func() {
		now := e.Now()
		for j := 0; j < 16; j++ {
			s.After(now, Cycle(1+j%4*25), nop)
		}
		e.Step()
	}
	e.Run(1000)
	for i := 0; i < 2*ringSize; i++ {
		step()
	}
	if e.Now() < 256 {
		t.Fatalf("clock %d never reached the boxed range", e.Now())
	}
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Fatalf("scheduler steady state: %v allocs per step, want 0", n)
	}
}
