package dram

import (
	"testing"

	"netcrafter/internal/sim"
	"netcrafter/internal/txn"
)

func setup(cfg Config) (*sim.Engine, *sim.Scheduler, *DRAM, *txn.Table) {
	e := sim.NewEngine()
	sched := sim.NewScheduler()
	d := New("hbm", cfg, sched)
	e.Register("dram", d)
	e.Register("sched", sched)
	return e, sched, d, txn.NewTable("test")
}

// access acquires a transaction for one transfer whose bottom frame
// runs done and releases it — the shape every caller of Access uses.
func access(tb *txn.Table, addr uint64, bytes int, write bool, done func(at sim.Cycle)) *txn.Transaction {
	t := tb.Acquire(txn.KindRead, 0)
	t.Mem = txn.MemOp{Addr: addr, Bytes: bytes, Write: write}
	t.Push(txn.HandlerFunc(func(t *txn.Transaction, _ txn.Frame, at sim.Cycle) {
		if done != nil {
			done(at)
		}
		t.Release()
	}), 0, 0, nil)
	return t
}

func TestSingleReadLatency(t *testing.T) {
	e, _, d, tb := setup(DefaultConfig())
	var doneAt sim.Cycle = -1
	d.Access(access(tb, 0, 64, false, func(now sim.Cycle) { doneAt = now }), 0)
	_, err := e.RunUntil(func() bool { return doneAt >= 0 }, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Queue delay 1 + >=1 cycle transfer + 100 latency ~= 101-102.
	if doneAt < 100 || doneAt > 110 {
		t.Fatalf("read completed at cycle %d, want ~101", doneAt)
	}
	if d.Reads.Value() != 1 || d.BytesRead.Value() != 64 {
		t.Fatal("read stats wrong")
	}
	if tb.Live() != 0 {
		t.Fatal("transaction leaked")
	}
}

func TestBandwidthThrottling(t *testing.T) {
	// 64 B/cycle bus: 100 requests x 64B = 100 cycles of bus time.
	cfg := Config{BytesPerCycle: 64, Latency: 10}
	e, _, d, tb := setup(cfg)
	done := 0
	var last sim.Cycle
	for i := 0; i < 100; i++ {
		d.Access(access(tb, uint64(i*64), 64, false, func(now sim.Cycle) {
			done++
			last = now
		}), 0)
	}
	if _, err := e.RunUntil(func() bool { return done == 100 }, 10000); err != nil {
		t.Fatal(err)
	}
	if last < 100 {
		t.Fatalf("100x64B finished at %d on a 64B/cycle bus; bandwidth not enforced", last)
	}
	if last > 200 {
		t.Fatalf("finished at %d; far slower than bus allows", last)
	}
}

func TestWideBusParallelism(t *testing.T) {
	run := func(bpc int) sim.Cycle {
		e, _, d, tb := setup(Config{BytesPerCycle: bpc, Latency: 10})
		done := 0
		for i := 0; i < 64; i++ {
			d.Access(access(tb, uint64(i*64), 64, false, func(sim.Cycle) { done++ }), 0)
		}
		end, err := e.RunUntil(func() bool { return done == 64 }, 10000)
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	if narrow, wide := run(64), run(1024); wide >= narrow {
		t.Fatalf("1024B/cy (%d) not faster than 64B/cy (%d)", wide, narrow)
	}
}

func TestWriteAccounting(t *testing.T) {
	e, _, d, tb := setup(DefaultConfig())
	done := false
	d.Access(access(tb, 0, 64, true, func(sim.Cycle) { done = true }), 0)
	if _, err := e.RunUntil(func() bool { return done }, 1000); err != nil {
		t.Fatal(err)
	}
	if d.Writes.Value() != 1 || d.BytesWrit.Value() != 64 || d.Reads.Value() != 0 {
		t.Fatal("write stats wrong")
	}
}

func TestAdmittedTransactionEntersDRAMState(t *testing.T) {
	_, _, d, tb := setup(DefaultConfig())
	tr := access(tb, 0, 64, false, nil)
	d.Access(tr, 0)
	if tr.State() != txn.StateDRAM {
		t.Fatalf("state = %v, want dram", tr.State())
	}
}

func TestZeroByteRequestPanics(t *testing.T) {
	_, _, d, tb := setup(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("zero-byte request did not panic")
		}
	}()
	d.Access(access(tb, 0, 0, false, nil), 0)
}

func TestSchedulerOrdering(t *testing.T) {
	s := sim.NewScheduler()
	var order []int
	s.At(5, func(sim.Cycle) { order = append(order, 1) })
	s.At(5, func(sim.Cycle) { order = append(order, 2) })
	s.At(3, func(sim.Cycle) { order = append(order, 0) })
	e := sim.NewEngine()
	e.Register("s", s)
	e.Run(10)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("scheduler order = %v", order)
	}
	if s.Pending() != 0 {
		t.Fatal("events left pending")
	}
}
