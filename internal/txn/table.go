package txn

import (
	"fmt"
	"io"
	"strings"

	"netcrafter/internal/obs/timeline"
	"netcrafter/internal/sim"
)

// Table owns the transactions of one cluster: a free pool recycled
// through an intrusive list, plus the live set in acquisition order so
// the in-flight population can be dumped and the oldest transaction
// found without scanning.
type Table struct {
	Name string

	nextID    uint64
	free      *Transaction
	head      *Transaction // oldest live
	tail      *Transaction // newest live
	counts    [numStates]int
	liveCount int
	allocated int // transactions ever created; pool high-water mark

	// dwell[s], when non-nil, receives one timeline event per live
	// transaction leaving state s (keyed by its ID), so a request's
	// full CU → TLB → DRAM → RDMA journey can be followed in a trace
	// viewer. Wired by SetTimeline; all-nil (the default) costs one
	// array load per state change.
	dwell [numStates]*timeline.Track
}

// NewTable returns an empty table.
func NewTable(name string) *Table { return &Table{Name: name} }

// SetTimeline wires per-state dwell tracks ("txn.<table>.<state>")
// into tl, after which every state transition of this table's
// transactions records how long the departing state held the request.
// A nil timeline detaches the tracks.
func (tb *Table) SetTimeline(tl *timeline.Timeline) {
	for s := StateIssued; s < numStates; s++ {
		if tl == nil {
			tb.dwell[s] = nil
		} else {
			tb.dwell[s] = tl.NewDwellTrack("txn." + tb.Name + "." + s.String())
		}
	}
}

// Acquire takes a transaction from the pool (or grows it), resets it,
// and enters it into the live set in StateIssued.
func (tb *Table) Acquire(k Kind, now sim.Cycle) *Transaction {
	t := tb.free
	if t == nil {
		t = &Transaction{table: tb, hist: make([]Stamp, 0, 8)}
		t.stepFn = t.Complete
		tb.allocated++
	} else {
		tb.free = t.freeNext
		t.freeNext = nil
	}
	tb.nextID++
	t.ID = tb.nextID
	t.Kind = k
	t.VAddr, t.PAddr, t.Base = 0, 0, 0
	t.Size = 0
	t.OriginGPU, t.OriginCU = -1, -1
	t.Needed = 0
	t.Trimmed = false
	t.Mem = MemOp{}
	t.state = StateFree
	t.born = now
	t.hist = t.hist[:0]
	t.sp = 0
	t.live = true

	t.prev = tb.tail
	t.next = nil
	if tb.tail != nil {
		tb.tail.next = t
	} else {
		tb.head = t
	}
	tb.tail = t
	tb.liveCount++

	t.SetState(StateIssued, now)
	return t
}

func (tb *Table) release(t *Transaction) {
	if t.state != StateFree {
		tb.counts[t.state]--
	}
	t.state = StateFree
	t.live = false
	t.Mem = MemOp{}

	if t.prev != nil {
		t.prev.next = t.next
	} else {
		tb.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		tb.tail = t.prev
	}
	t.prev, t.next = nil, nil
	tb.liveCount--

	t.freeNext = tb.free
	tb.free = t
}

// Live returns the number of in-flight transactions.
func (tb *Table) Live() int { return tb.liveCount }

// Allocated returns the pool's high-water mark: transactions ever
// created.
func (tb *Table) Allocated() int { return tb.allocated }

// StateCount returns the number of live transactions in a state.
func (tb *Table) StateCount(s State) int { return tb.counts[s] }

// Oldest returns the oldest live transaction, nil when none is live.
func (tb *Table) Oldest() *Transaction { return tb.head }

// Dump writes the live set: per-stage occupancy, then one line per
// transaction (oldest first) with its stage ages.
func (tb *Table) Dump(w io.Writer, now sim.Cycle) {
	fmt.Fprintf(w, "txn table %s: %d in flight (pool %d)\n",
		tb.Name, tb.liveCount, tb.allocated)
	for s := StateIssued; s < numStates; s++ {
		if tb.counts[s] > 0 {
			fmt.Fprintf(w, "  stage %-9s %d\n", s.String(), tb.counts[s])
		}
	}
	if t := tb.Oldest(); t != nil {
		fmt.Fprintf(w, "  oldest %d cycles\n", t.Age(now))
	}
	for t := tb.head; t != nil; t = t.next {
		fmt.Fprintf(w, "  #%d %s %s age=%d vaddr=%#x paddr=%#x size=%d origin=gpu%d/cu%d depth=%d [%s]\n",
			t.ID, t.Kind, t.state, t.Age(now), t.VAddr, t.PAddr, t.Size,
			t.OriginGPU, t.OriginCU, t.sp, historyString(t.hist, now))
	}
}

func historyString(hist []Stamp, now sim.Cycle) string {
	var b strings.Builder
	for i, st := range hist {
		if i > 0 {
			b.WriteByte(' ')
		}
		end := now
		if i+1 < len(hist) {
			end = hist[i+1].At
		}
		fmt.Fprintf(&b, "%s@%d+%d", st.S, st.At, end-st.At)
	}
	return b.String()
}

// Watchdog reports transactions that have been in flight longer than a
// cycle budget — the wedged-request detector. Check is driven
// explicitly (end of run, or on a run-limit error) so the watchdog
// never perturbs simulated event order.
type Watchdog struct {
	Table  *Table
	Budget sim.Cycle
}

// Check writes a report for every live transaction older than the
// budget, including its full stage history, and returns how many it
// found. The live list is age-ordered, so the scan stops at the first
// young transaction.
func (wd *Watchdog) Check(w io.Writer, now sim.Cycle) int {
	n := 0
	for t := wd.Table.head; t != nil; t = t.next {
		age := now - t.born
		if age <= wd.Budget {
			break
		}
		n++
		fmt.Fprintf(w, "txn watchdog [%s]: #%d %s stuck in %s for %d cycles (budget %d) vaddr=%#x paddr=%#x origin=gpu%d/cu%d depth=%d\n  history: %s\n",
			wd.Table.Name, t.ID, t.Kind, t.state, age, wd.Budget,
			t.VAddr, t.PAddr, t.OriginGPU, t.OriginCU, t.sp,
			historyString(t.hist, now))
	}
	return n
}
