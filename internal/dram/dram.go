// Package dram models the per-GPU HBM/GDDR memory: a fixed access
// latency plus a bandwidth-limited service stage (Table 2: 1 TB/s,
// 100 ns). At the 1 GHz system clock 1 TB/s is 1024 bytes/cycle and
// 100 ns is 100 cycles.
package dram

import (
	"netcrafter/internal/obs"
	"netcrafter/internal/sim"
	"netcrafter/internal/stats"
	"netcrafter/internal/txn"
)

// Config describes one memory stack.
type Config struct {
	BytesPerCycle int
	Latency       sim.Cycle
}

// DefaultConfig returns the paper's HBM parameters.
func DefaultConfig() Config {
	return Config{BytesPerCycle: 1024, Latency: 100}
}

// DRAM services transactions FIFO at the configured bandwidth,
// completing each Latency cycles after its data slot finishes. Its
// request queue is unbounded: every request is admitted, and bus
// contention shows up as queueing delay. The
// transfer is described by the transaction's Mem descriptor; the
// transaction Completes exactly once when the data has been
// transferred (reads) or accepted (writes).
type DRAM struct {
	Name string
	cfg  Config
	q    *sim.Queue[*txn.Transaction]
	// busFreeAt is the first byte-slot at which the data bus is free,
	// measured in bytes of bus time (cycle N spans byte-slots
	// [N*BytesPerCycle, (N+1)*BytesPerCycle)). Byte granularity lets a
	// wide bus serve several small requests in one cycle.
	busFreeAt int64
	sched     *sim.Scheduler

	Reads     stats.Counter
	Writes    stats.Counter
	BytesRead stats.Counter
	BytesWrit stats.Counter
	// ObsServiceLat, when non-nil, records each request's admission-to-
	// completion time (bus occupancy wait + fixed access latency).
	ObsServiceLat *obs.Hist
}

// New creates a DRAM stack that schedules completions on sched.
func New(name string, cfg Config, sched *sim.Scheduler) *DRAM {
	if cfg.BytesPerCycle <= 0 {
		panic("dram: BytesPerCycle must be positive")
	}
	if cfg.Latency < 1 {
		cfg.Latency = 1
	}
	return &DRAM{
		Name:  name,
		cfg:   cfg,
		q:     sim.NewQueue[*txn.Transaction](0, 1),
		sched: sched,
	}
}

// Access enqueues a transaction whose Mem descriptor is filled in. The
// queue is unbounded, so Access always admits.
func (d *DRAM) Access(t *txn.Transaction, now sim.Cycle) {
	if t.Mem.Bytes <= 0 {
		panic("dram: request with no bytes")
	}
	d.q.Push(t, now)
	t.SetState(txn.StateDRAM, now)
}

// Tick implements sim.Ticker: admit queued requests to the data bus.
func (d *DRAM) Tick(now sim.Cycle) bool {
	busy := false
	bpc := int64(d.cfg.BytesPerCycle)
	for {
		t, ok := d.q.Peek(now)
		if !ok {
			break
		}
		start := int64(now) * bpc
		if d.busFreeAt > start {
			start = d.busFreeAt
		}
		// Admit only transfers that begin within this cycle; later
		// ones wait (bandwidth saturation).
		if start >= (int64(now)+1)*bpc {
			break
		}
		d.q.PopReady() // readiness established by Peek above
		end := start + int64(t.Mem.Bytes)
		d.busFreeAt = end
		if t.Mem.Write {
			d.Writes.Inc()
			d.BytesWrit.Add(int64(t.Mem.Bytes))
		} else {
			d.Reads.Inc()
			d.BytesRead.Add(int64(t.Mem.Bytes))
		}
		endCycle := sim.Cycle((end + bpc - 1) / bpc)
		d.ObsServiceLat.Observe(float64(endCycle + d.cfg.Latency - 1 - now))
		t.CompleteAt(d.sched, endCycle+d.cfg.Latency-1)
		busy = true
	}
	return busy
}

// SetWaker implements sim.Ticker: Access is called from the memory
// partitions' scheduler callbacks, so a sleeping DRAM must be re-armed
// when a request lands in its queue.
func (d *DRAM) SetWaker(w *sim.Waker) { d.q.SetWaker(w) }

// NextWake implements sim.Ticker.
func (d *DRAM) NextWake(now sim.Cycle) sim.Cycle {
	next := d.q.NextReady()
	if next == sim.CycleMax {
		return next
	}
	// A queued request cannot be admitted before the bus frees.
	if busFreeCycle := sim.Cycle(d.busFreeAt / int64(d.cfg.BytesPerCycle)); busFreeCycle > next {
		return busFreeCycle
	}
	return next
}
