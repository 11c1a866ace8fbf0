package txn

import (
	"strings"
	"testing"

	"netcrafter/internal/cache"
	"netcrafter/internal/sim"
)

// recorder is a test Handler that records each completion and releases
// the transaction when its bottom frame pops.
type recorder struct {
	order []uint64
	ats   []sim.Cycle
}

func (r *recorder) OnComplete(t *Transaction, f Frame, at sim.Cycle) {
	r.order = append(r.order, t.ID)
	r.ats = append(r.ats, at)
	t.Release()
}

func TestFrameStackUnwindsLIFO(t *testing.T) {
	tb := NewTable("t")
	tr := tb.Acquire(KindRead, 0)
	var got []uint16
	h := HandlerFunc(func(tr *Transaction, f Frame, at sim.Cycle) {
		got = append(got, f.Role)
		if f.Role == 0 {
			tr.Release()
			return
		}
		tr.Complete(at)
	})
	tr.Push(h, 0, 0, nil)
	tr.Push(h, 1, 0, nil)
	tr.Push(h, 2, 0, nil)
	tr.Complete(10)
	if len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("unwind order = %v, want [2 1 0]", got)
	}
	if tb.Live() != 0 {
		t.Fatalf("live = %d after full unwind", tb.Live())
	}
}

func TestFrameArgAndRefRoundTrip(t *testing.T) {
	tb := NewTable("t")
	tr := tb.Acquire(KindRead, 0)
	ref := &struct{ x int }{x: 7}
	tr.Push(HandlerFunc(func(tr *Transaction, f Frame, at sim.Cycle) {
		if f.Arg != 0xbeef || f.Ref != ref {
			t.Errorf("frame payload lost: arg=%#x ref=%v", f.Arg, f.Ref)
		}
		tr.Release()
	}), 3, 0xbeef, ref)
	tr.Complete(1)
}

func TestPoolRecyclesWithoutGrowth(t *testing.T) {
	tb := NewTable("t")
	done := HandlerFunc(func(tr *Transaction, f Frame, at sim.Cycle) { tr.Release() })
	for i := 0; i < 100; i++ {
		tr := tb.Acquire(KindRead, sim.Cycle(i))
		tr.Push(done, 0, 0, nil)
		tr.Complete(sim.Cycle(i))
	}
	if tb.Allocated() != 1 {
		t.Fatalf("pool grew to %d for serial reuse, want 1", tb.Allocated())
	}
	if tb.Live() != 0 {
		t.Fatalf("live = %d", tb.Live())
	}
}

func TestAcquireResetsState(t *testing.T) {
	tb := NewTable("t")
	tr := tb.Acquire(KindWrite, 5)
	tr.VAddr, tr.PAddr, tr.Base = 1, 2, 3
	tr.Size = 64
	tr.Trimmed = true
	tr.SetState(StateNet, 6)
	id := tr.ID
	tr.Release()

	tr2 := tb.Acquire(KindRead, 10)
	if tr2 != tr {
		t.Fatal("pool did not recycle the released transaction")
	}
	if tr2.ID == id || tr2.VAddr != 0 || tr2.PAddr != 0 || tr2.Base != 0 ||
		tr2.Size != 0 || tr2.Trimmed || tr2.Kind != KindRead {
		t.Fatalf("recycled transaction not reset: %+v", tr2)
	}
	if tr2.State() != StateIssued || len(tr2.History()) != 1 {
		t.Fatalf("state = %v history = %v", tr2.State(), tr2.History())
	}
}

func TestReleaseWithPendingFramesPanics(t *testing.T) {
	tb := NewTable("t")
	tr := tb.Acquire(KindRead, 0)
	tr.Push(HandlerFunc(func(*Transaction, Frame, sim.Cycle) {}), 0, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Release with a pending frame did not panic")
		}
	}()
	tr.Release()
}

func TestTouchAfterReleasePanics(t *testing.T) {
	tb := NewTable("t")
	tr := tb.Acquire(KindRead, 0)
	tr.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Complete on a released transaction did not panic")
		}
	}()
	tr.Complete(0)
}

func TestStateCountsTrackTransitions(t *testing.T) {
	tb := NewTable("t")
	a := tb.Acquire(KindRead, 0)
	b := tb.Acquire(KindRead, 0)
	a.SetState(StateL1, 1)
	b.SetState(StateL1, 1)
	b.SetState(StateL1, 2) // re-entry: no-op
	if tb.StateCount(StateL1) != 2 || tb.StateCount(StateIssued) != 0 {
		t.Fatalf("counts: l1=%d issued=%d", tb.StateCount(StateL1), tb.StateCount(StateIssued))
	}
	if len(b.History()) != 2 {
		t.Fatalf("re-entering a state grew history: %v", b.History())
	}
	a.Release()
	if tb.StateCount(StateL1) != 1 {
		t.Fatalf("release did not decrement occupancy")
	}
	b.Release()
}

// The MSHR multi-waiter contract under the Transaction type: N
// transactions merging on one line all complete at the fill cycle, in
// registration order, and nothing leaks back into the pool.
func TestMSHRWaitersCompleteInRegistrationOrder(t *testing.T) {
	tb := NewTable("t")
	mshr := cache.NewMSHR[*Transaction](4)
	rec := &recorder{}
	const line = uint64(0x1000)

	var ids []uint64
	for i := 0; i < 3; i++ {
		tr := tb.Acquire(KindRead, 0)
		tr.Push(rec, 0, 0, nil)
		ids = append(ids, tr.ID)
		out := mshr.Allocate(line, cache.SectorMask(1<<i), tr)
		if i == 0 && out != cache.Primary {
			t.Fatalf("first miss outcome = %v", out)
		}
		if i > 0 && out != cache.Merged {
			t.Fatalf("secondary miss outcome = %v", out)
		}
	}

	waiters, mask, ok := mshr.Release(line)
	if !ok || mask != 0b111 {
		t.Fatalf("release ok=%v mask=%b", ok, mask)
	}
	const fillCycle = sim.Cycle(50)
	for _, w := range waiters {
		w.Complete(fillCycle)
	}

	if len(rec.order) != 3 {
		t.Fatalf("%d waiters completed, want 3", len(rec.order))
	}
	for i, id := range rec.order {
		if id != ids[i] {
			t.Fatalf("completion order %v, want registration order %v", rec.order, ids)
		}
		if rec.ats[i] != fillCycle {
			t.Fatalf("waiter %d completed at %d, want fill cycle %d", i, rec.ats[i], fillCycle)
		}
	}
	if tb.Live() != 0 {
		t.Fatalf("%d transactions leaked", tb.Live())
	}
}

// A stalled allocation retried via the deferred step function must
// eventually land and release every pool entry.
func TestMSHRRetryPathDoesNotLeak(t *testing.T) {
	e := sim.NewEngine()
	sched := sim.NewScheduler()
	e.Register("sched", sched)
	tb := NewTable("t")
	mshr := cache.NewMSHR[*Transaction](1)
	rec := &recorder{}

	const lineA, lineB = uint64(0x40), uint64(0x80)
	a := tb.Acquire(KindRead, 0)
	a.Push(rec, 0, 0, nil)
	if mshr.Allocate(lineA, 1, a) != cache.Primary {
		t.Fatal("setup: lineA not primary")
	}

	b := tb.Acquire(KindRead, 0)
	b.Push(rec, 0, 0, nil)
	var retry Handler
	retry = HandlerFunc(func(tr *Transaction, f Frame, at sim.Cycle) {
		switch mshr.Allocate(lineB, 1, tr) {
		case cache.Stalled:
			tr.Push(retry, 0, 0, nil)
			tr.CompleteAfter(sched, at, 4)
		case cache.Primary:
			// Fill arrives two cycles later.
			tr.Push(HandlerFunc(func(tr *Transaction, f Frame, at sim.Cycle) {
				ws, _, _ := mshr.Release(lineB)
				for _, w := range ws {
					w.Complete(at)
				}
			}), 0, 0, nil)
			tr.CompleteAfter(sched, at, 2)
		}
	})
	if mshr.Allocate(lineB, 1, b) != cache.Stalled {
		t.Fatal("setup: MSHR not full")
	}
	b.Push(retry, 0, 0, nil)
	b.CompleteAfter(sched, 0, 4)

	// Free lineA at cycle 10; b's poll then claims the entry.
	sched.At(10, func(at sim.Cycle) {
		ws, _, _ := mshr.Release(lineA)
		for _, w := range ws {
			w.Complete(at)
		}
	})

	if _, err := e.RunUntil(func() bool { return tb.Live() == 0 }, 1000); err != nil {
		t.Fatalf("transactions leaked: live=%d: %v", tb.Live(), err)
	}
	if len(rec.order) != 2 {
		t.Fatalf("completions = %d, want 2", len(rec.order))
	}
	if mshr.Len() != 0 {
		t.Fatal("MSHR entry leaked")
	}
}

// The watchdog must report a deliberately wedged transaction with its
// full stage history.
func TestWatchdogReportsWedgedTransaction(t *testing.T) {
	tb := NewTable("cluster0")
	tr := tb.Acquire(KindRead, 100)
	tr.VAddr, tr.PAddr = 0xcafe000, 0x1000
	tr.OriginGPU, tr.OriginCU = 2, 3
	tr.SetState(StateTranslate, 105)
	tr.SetState(StateL1, 120)
	tr.SetState(StateMSHR, 125)
	// Never completed: wedged in the MSHR.
	tr.Push(HandlerFunc(func(*Transaction, Frame, sim.Cycle) {}), 0, 0, nil)

	ok := tb.Acquire(KindRead, 9_000)
	ok.Push(HandlerFunc(func(*Transaction, Frame, sim.Cycle) {}), 0, 0, nil)

	wd := &Watchdog{Table: tb, Budget: 5_000}
	var buf strings.Builder
	n := wd.Check(&buf, 10_000)
	if n != 1 {
		t.Fatalf("watchdog flagged %d transactions, want exactly the wedged one", n)
	}
	out := buf.String()
	for _, want := range []string{
		"stuck in mshr", "9900 cycles", "gpu2/cu3",
		"issued@100", "translate@105", "l1@120", "mshr@125",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("watchdog report missing %q:\n%s", want, out)
		}
	}
	if n := wd.Check(&buf, 10_000); n != 1 {
		t.Fatalf("second check found %d", n)
	}
}

func TestDumpListsLiveTransactions(t *testing.T) {
	tb := NewTable("c0")
	a := tb.Acquire(KindRead, 0)
	a.SetState(StateDRAM, 10)
	b := tb.Acquire(KindWrite, 5)
	b.SetState(StateNet, 7)
	var buf strings.Builder
	tb.Dump(&buf, 20)
	out := buf.String()
	for _, want := range []string{
		"2 in flight", "stage dram", "stage net", "oldest 20 cycles",
		"#1 read dram", "#2 write net",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestDropDiscardsTopFrame(t *testing.T) {
	tb := NewTable("t")
	tr := tb.Acquire(KindRead, 0)
	fired := false
	tr.Push(HandlerFunc(func(tr *Transaction, f Frame, at sim.Cycle) {
		if f.Role == 1 {
			fired = true
		}
		tr.Release()
	}), 1, 0, nil)
	tr.Push(HandlerFunc(func(*Transaction, Frame, sim.Cycle) {
		t.Fatal("dropped frame dispatched")
	}), 2, 0, nil)
	tr.Drop()
	tr.Complete(3)
	if !fired {
		t.Fatal("frame below the dropped one never ran")
	}
}
