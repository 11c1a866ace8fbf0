// Package txn gives a memory request a single identity for its whole
// life. A Transaction is acquired from a per-cluster Table when a CU
// issues an access and carries the request through translation, L1,
// MSHR merge, L2, DRAM and the network until it completes — replacing
// the per-hop `done func(at)` closure chains that used to thread the
// same request through each layer anonymously.
//
// Continuations are an explicit frame stack on the transaction: a
// component that needs to act when the layer below finishes pushes a
// frame (its Handler plus a small role/arg payload) with Push, and the
// layer below pops and dispatches it with Complete. Deferred work —
// "finish this lookup in N cycles" — is Push plus CompleteAfter, which
// schedules the transaction's own reusable step function, so the
// steady-state hot path allocates nothing: transactions recycle
// through an intrusive free list and the frame stack is a fixed array.
//
// Ownership rules (see DESIGN.md "Transaction lifecycle & ownership"):
// exactly one component owns a transaction at a time — the one whose
// frame is on top of the stack is the one that will be called next,
// and only the current owner may call Complete. Release returns the
// transaction to its table's free pool and is legal only with an empty
// frame stack; a released transaction must never be touched, and every
// accessor panics if it is.
//
// Concurrency: tables and transactions are engine-local,
// single-goroutine state. A Table belongs to the cluster.System that
// created it and is only touched from that system's engine tick loop
// — no locks, by design, because that is what keeps the hot path
// allocation- and contention-free. Parallel sweeps stay race-free by
// giving every worker a private system (and therefore private
// tables), never by sharing one.
package txn

import (
	"netcrafter/internal/cache"
	"netcrafter/internal/sim"
)

// Kind classifies what a transaction moves.
type Kind uint8

const (
	// KindRead is a CU load (local or remote).
	KindRead Kind = iota
	// KindWrite is a posted store: the CU's access completes at issue
	// while the write drains in the background under its own
	// transaction.
	KindWrite
	// KindWriteback is an L2 victim flushing to DRAM.
	KindWriteback
	// KindServe is the home side of a remote request: the RDMA engine
	// reading or writing its local partition on a requester's behalf.
	KindServe

	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindRead:
		return "read"
	case KindWrite:
		return "write"
	case KindWriteback:
		return "writeback"
	case KindServe:
		return "serve"
	}
	return "?"
}

// State is the pipeline stage a transaction currently occupies. States
// are observational — they drive the in-flight table's occupancy
// counts and the per-transaction stage history, not control flow
// (control flow is the frame stack).
type State uint8

const (
	// StateFree — in the table's pool; must not be referenced.
	StateFree State = iota
	// StateIssued — acquired by a CU, waiting to enter the pipeline.
	StateIssued
	// StateTranslate — in the TLB/GMMU hierarchy.
	StateTranslate
	// StateL1 — probing the CU's L1.
	StateL1
	// StateMSHR — parked on an L1 miss-status register.
	StateMSHR
	// StateL2 — queued on or probing a home L2 bank.
	StateL2
	// StateDRAM — queued on or being serviced by DRAM.
	StateDRAM
	// StateNet — crossing the network as a packet.
	StateNet

	numStates
)

func (s State) String() string {
	switch s {
	case StateFree:
		return "free"
	case StateIssued:
		return "issued"
	case StateTranslate:
		return "translate"
	case StateL1:
		return "l1"
	case StateMSHR:
		return "mshr"
	case StateL2:
		return "l2"
	case StateDRAM:
		return "dram"
	case StateNet:
		return "net"
	}
	return "?"
}

// Stamp records when a transaction entered a state.
type Stamp struct {
	S  State
	At sim.Cycle
}

// Handler consumes completion events for frames it pushed. Role and
// the frame's Arg/Ref let one component multiplex all its continuation
// points through a single Handler without per-request closures.
type Handler interface {
	OnComplete(t *Transaction, f Frame, at sim.Cycle)
}

// HandlerFunc adapts a function to the Handler interface (tests and
// leaf consumers).
type HandlerFunc func(t *Transaction, f Frame, at sim.Cycle)

// OnComplete calls fn.
func (fn HandlerFunc) OnComplete(t *Transaction, f Frame, at sim.Cycle) { fn(t, f, at) }

// Frame is one pending continuation on a transaction's stack.
type Frame struct {
	H    Handler
	Role uint16
	Arg  uint64
	Ref  any
}

// maxFrames bounds continuation depth. The deepest real path (CU
// access → TLB fill → GMMU walk step → remote PTE read → home L2 →
// DRAM, with the observability pass-through) nests eight frames;
// twelve leaves slack for future layers.
const maxFrames = 12

// MemOp describes the DRAM transfer a transaction is performing, set
// by the L2 partition immediately before handing the transaction to
// the DRAM model.
type MemOp struct {
	Addr  uint64
	Bytes int
	Write bool
}

// Transaction is one logical memory request. Fields in the first block
// are set by the issuing CU (or the component that acquired it);
// Base/Needed/Trimmed/Mem are scratch owned by whichever layer the
// transaction currently occupies.
type Transaction struct {
	ID        uint64 // unique within the owning table, monotonically assigned
	Kind      Kind
	VAddr     uint64
	PAddr     uint64
	Size      int
	OriginGPU int
	OriginCU  int

	Base    uint64           // physical page base, filled by translation
	Needed  cache.SectorMask // sectors the requester needs, L1 scratch
	Trimmed bool             // response arrived trimmed (carries only Needed)
	Mem     MemOp            // DRAM transfer descriptor

	table *Table
	state State
	born  sim.Cycle
	hist  []Stamp

	stack [maxFrames]Frame
	sp    int

	// stepFn is the transaction's reusable scheduler callback: built
	// once when the Transaction is first allocated and kept across
	// recycling, so CompleteAfter/CompleteAt never allocate.
	stepFn func(at sim.Cycle)

	live     bool
	freeNext *Transaction // intrusive free-list link
	prev     *Transaction // intrusive live-list links (insertion order)
	next     *Transaction
}

func (t *Transaction) check() {
	if !t.live {
		panic("txn: released transaction touched")
	}
}

// Push parks a continuation: h.OnComplete(t, f, at) runs when the
// layers below finish and ownership unwinds back to this frame.
func (t *Transaction) Push(h Handler, role uint16, arg uint64, ref any) {
	t.check()
	if t.sp == maxFrames {
		panic("txn: frame stack overflow")
	}
	t.stack[t.sp] = Frame{H: h, Role: role, Arg: arg, Ref: ref}
	t.sp++
}

// Complete pops the top frame and dispatches it — the layer that
// finished hands the transaction back to whoever was waiting on it.
func (t *Transaction) Complete(at sim.Cycle) {
	t.check()
	if t.sp == 0 {
		panic("txn: Complete with empty frame stack")
	}
	t.sp--
	f := t.stack[t.sp]
	t.stack[t.sp] = Frame{}
	f.H.OnComplete(t, f, at)
}

// Drop pops the top frame without dispatching it. Used when a send is
// rejected after its completion frame was already pushed: pop, then
// push the retry frame instead.
func (t *Transaction) Drop() {
	t.check()
	if t.sp == 0 {
		panic("txn: Drop with empty frame stack")
	}
	t.sp--
	t.stack[t.sp] = Frame{}
}

// CompleteAfter schedules Complete to run delay cycles from now.
func (t *Transaction) CompleteAfter(s *sim.Scheduler, now, delay sim.Cycle) {
	t.check()
	s.After(now, delay, t.stepFn)
}

// CompleteAt schedules Complete to run at the given absolute cycle.
func (t *Transaction) CompleteAt(s *sim.Scheduler, at sim.Cycle) {
	t.check()
	s.At(at, t.stepFn)
}

// SetState records a pipeline-stage transition: table occupancy counts
// move and the stage history gains a stamp. Re-entering the current
// state (retry loops) is a no-op, which keeps the history bounded by
// path length.
func (t *Transaction) SetState(s State, now sim.Cycle) {
	t.check()
	if s == t.state {
		return
	}
	if t.table != nil {
		if t.state != StateFree {
			t.table.counts[t.state]--
			if tr := t.table.dwell[t.state]; tr != nil && len(t.hist) > 0 {
				entered := t.hist[len(t.hist)-1].At
				tr.Dwell(entered, now-entered, t.ID)
			}
		}
		if s != StateFree {
			t.table.counts[s]++
		}
	}
	t.state = s
	t.hist = append(t.hist, Stamp{S: s, At: now})
}

// State returns the current pipeline stage.
func (t *Transaction) State() State { return t.state }

// History returns the stage transitions so far, in order. The slice is
// owned by the transaction; callers must not retain it past Release.
func (t *Transaction) History() []Stamp { return t.hist }

// Age returns how long the transaction has been live.
func (t *Transaction) Age(now sim.Cycle) sim.Cycle { return now - t.born }

// Depth returns the number of pending continuation frames.
func (t *Transaction) Depth() int { return t.sp }

// Live reports whether the transaction is acquired (not in the pool).
func (t *Transaction) Live() bool { return t.live }

// Release returns the transaction to its table's pool. The frame stack
// must be empty: a pending frame means some component still expects a
// completion that can now never arrive.
func (t *Transaction) Release() {
	t.check()
	if t.sp != 0 {
		panic("txn: Release with pending frames")
	}
	t.table.release(t)
}
