package vm

import (
	"netcrafter/internal/cache"
	"netcrafter/internal/sim"
	"netcrafter/internal/stats"
	"netcrafter/internal/txn"
)

// Translator is anything that can resolve VPN(t.VAddr) to a physical
// page base asynchronously: a TLB level or the GMMU itself.
type Translator interface {
	// Translate requests a translation for t; the resolved page base
	// lands in t.Base and t completes exactly once. It reports false
	// when the component cannot accept the request this cycle (caller
	// retries).
	Translate(t *txn.Transaction, now sim.Cycle) bool
}

// tlbArray is the associative storage of a TLB: one flat, set-major
// entry slice, allocated by the first insert. Before that every lookup
// misses, exactly as in an empty array.
type tlbArray struct {
	entries []tlbEntry // nSets*ways entries, nil until the first insert
	nSets   uint64
	ways    int
	tick    uint64
}

type tlbEntry struct {
	vpn   uint64
	base  uint64
	valid bool
	last  uint64
}

func newTLBArray(entries, ways int) *tlbArray {
	if ways <= 0 || entries%ways != 0 {
		panic("vm: TLB entries must divide evenly into ways")
	}
	return &tlbArray{nSets: uint64(entries / ways), ways: ways}
}

// set returns the set holding vpn (empty before the first insert).
func (a *tlbArray) set(vpn uint64) []tlbEntry {
	if a.entries == nil {
		return nil
	}
	w := uint64(a.ways)
	i := vpn % a.nSets * w
	return a.entries[i : i+w : i+w]
}

func (a *tlbArray) lookup(vpn uint64) (uint64, bool) {
	a.tick++
	set := a.set(vpn)
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].last = a.tick
			return set[i].base, true
		}
	}
	return 0, false
}

func (a *tlbArray) insert(vpn, base uint64) {
	a.tick++
	if a.entries == nil {
		a.entries = make([]tlbEntry, a.nSets*uint64(a.ways))
	}
	set := a.set(vpn)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].base = base
			set[i].last = a.tick
			return
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].last < set[victim].last {
			victim = i
		}
	}
	set[victim] = tlbEntry{vpn: vpn, base: base, valid: true, last: a.tick}
}

func (a *tlbArray) invalidateAll() { clear(a.entries) }

// TLBConfig describes one TLB level.
type TLBConfig struct {
	Entries int
	Ways    int // == Entries for fully associative
	Latency sim.Cycle
	MSHRs   int
}

// L1TLBConfig returns the per-CU L1 TLB parameters (Table 2).
func L1TLBConfig() TLBConfig { return TLBConfig{Entries: 32, Ways: 32, Latency: 1, MSHRs: 8} }

// L2TLBConfig returns the per-GPU shared L2 TLB parameters (Table 2).
func L2TLBConfig() TLBConfig { return TLBConfig{Entries: 512, Ways: 8, Latency: 10, MSHRs: 64} }

// TLBStats counts TLB activity.
type TLBStats struct {
	Accesses stats.Counter
	Hits     stats.Counter
	Misses   stats.Counter
	Stalls   stats.Counter
}

// TLB is a timed translation cache backed by a lower Translator.
type TLB struct {
	Name  string
	cfg   TLBConfig
	arr   *tlbArray
	mshr  *cache.MSHR[*txn.Transaction]
	below Translator
	sched *sim.Scheduler
	Stats TLBStats
}

// NewTLB builds a TLB that resolves misses through below, scheduling
// its lookup latency on sched.
func NewTLB(name string, cfg TLBConfig, below Translator, sched *sim.Scheduler) *TLB {
	return &TLB{
		Name:  name,
		cfg:   cfg,
		arr:   newTLBArray(cfg.Entries, cfg.Ways),
		mshr:  cache.NewMSHR[*txn.Transaction](cfg.MSHRs),
		below: below,
		sched: sched,
	}
}

// Continuation roles a TLB parks on a transaction.
const (
	// tlbRoleLookup — the latent array probe after Translate accepts.
	tlbRoleLookup uint16 = iota
	// tlbRoleRetry — 4-cycle poll re-entering Translate after an MSHR
	// stall.
	tlbRoleRetry
	// tlbRoleFill — the level below resolved the primary miss; insert
	// and wake all merged waiters. Arg is the VPN.
	tlbRoleFill
	// tlbRoleIssueRetry — 4-cycle poll re-offering the primary miss to
	// a lower level that rejected it. Arg is the VPN.
	tlbRoleIssueRetry
)

// Translate implements Translator.
func (t *TLB) Translate(tr *txn.Transaction, now sim.Cycle) bool {
	vpn := VPN(tr.VAddr)
	// Reject up front if a new primary miss could not be tracked; a
	// merged or hit request is always acceptable, but we cannot know
	// which until after the (latent) lookup, so be conservative only
	// when the MSHR file is truly full and the line is not pending.
	if t.mshr.Full() && !t.mshr.Pending(vpn) {
		t.Stats.Stalls.Inc()
		return false
	}
	t.Stats.Accesses.Inc()
	tr.SetState(txn.StateTranslate, now)
	tr.Push(t, tlbRoleLookup, 0, nil)
	tr.CompleteAfter(t.sched, now, t.cfg.Latency)
	return true
}

// OnComplete implements txn.Handler.
func (t *TLB) OnComplete(tr *txn.Transaction, f txn.Frame, at sim.Cycle) {
	switch f.Role {
	case tlbRoleLookup:
		t.lookup(tr, at)
	case tlbRoleRetry:
		// Timing matches the old self-rescheduling poll closure: first
		// attempt 4 cycles after the stall, then every 4 cycles until
		// Translate accepts.
		if !t.Translate(tr, at) {
			tr.Push(t, tlbRoleRetry, 0, nil)
			tr.CompleteAfter(t.sched, at, 4)
		}
	case tlbRoleFill:
		t.fill(tr, f.Arg, at)
	case tlbRoleIssueRetry:
		t.tryBelow(tr, f.Arg, at)
	}
}

func (t *TLB) lookup(tr *txn.Transaction, at sim.Cycle) {
	vpn := VPN(tr.VAddr)
	if base, ok := t.arr.lookup(vpn); ok {
		t.Stats.Hits.Inc()
		tr.Base = base
		tr.Complete(at)
		return
	}
	t.Stats.Misses.Inc()
	switch t.mshr.Allocate(vpn, 1, tr) {
	case cache.Merged:
		return
	case cache.Stalled:
		// Race: filled up since the pre-check. Retry shortly.
		t.Stats.Stalls.Inc()
		tr.Push(t, tlbRoleRetry, 0, nil)
		tr.CompleteAfter(t.sched, at, 4)
		return
	}
	tr.Push(t, tlbRoleFill, vpn, nil)
	t.tryBelow(tr, vpn, at)
}

func (t *TLB) tryBelow(tr *txn.Transaction, vpn uint64, now sim.Cycle) {
	if !t.below.Translate(tr, now) {
		tr.Push(t, tlbRoleIssueRetry, vpn, nil)
		tr.CompleteAfter(t.sched, now, 4)
	}
}

// fill runs when the level below resolved the primary miss carried by
// tr: install the translation and wake every merged waiter. The
// primary is waiters[0], so completion order matches registration
// order with the primary first.
func (t *TLB) fill(tr *txn.Transaction, vpn uint64, at sim.Cycle) {
	base := tr.Base
	t.arr.insert(vpn, base)
	waiters, _, _ := t.mshr.Release(vpn)
	for _, w := range waiters {
		w.Base = base
		w.Complete(at)
	}
}

// InvalidateAll flushes the TLB (kernel boundary).
func (t *TLB) InvalidateAll() { t.arr.invalidateAll() }

// HitRate returns hits/accesses.
func (t *TLB) HitRate() float64 {
	a := t.Stats.Accesses.Value()
	if a == 0 {
		return 0
	}
	return float64(t.Stats.Hits.Value()) / float64(a)
}
