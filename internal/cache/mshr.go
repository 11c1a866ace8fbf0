package cache

// MSHR is a miss-status holding register file: it tracks outstanding
// line misses and merges secondary misses to the same line so only one
// request goes below. The waiter payload is generic so L1s can park
// wavefront transactions and TLBs can park translation requests.
//
// The file is one slice of slots, allocated at the first miss as cache
// lines are. The live slots come first (len(slots) of them) and are
// found by a linear scan, which beats hashing at the file sizes the
// paper uses (at most 64 entries). A released slot keeps its waiter
// slice, so a steady stream of misses allocates nothing.
type MSHR[W any] struct {
	slots []mshrSlot[W] // live slots; cap is the file size once allocated
	max   int
}

type mshrSlot[W any] struct {
	line    uint64
	mask    SectorMask // union of sectors requested while outstanding
	waiters []W        // primary first, then merge order
}

// NewMSHR returns an MSHR file with the given number of entries.
func NewMSHR[W any](entries int) *MSHR[W] {
	if entries <= 0 {
		panic("cache: MSHR needs at least one entry")
	}
	return &MSHR[W]{max: entries}
}

// Outcome of an MSHR allocation attempt.
type Outcome int

const (
	// Primary — first miss on the line; caller must issue the fill.
	Primary Outcome = iota
	// Merged — an entry already tracks the line; the waiter was parked.
	Merged
	// Stalled — the file is full; caller must retry later.
	Stalled
)

// find returns the index of the live slot tracking lineAddr, or -1.
func (m *MSHR[W]) find(lineAddr uint64) int {
	for i := range m.slots {
		if m.slots[i].line == lineAddr {
			return i
		}
	}
	return -1
}

// Allocate registers a miss for lineAddr. On Primary and Merged the
// waiter is recorded for delivery at Release time.
func (m *MSHR[W]) Allocate(lineAddr uint64, mask SectorMask, waiter W) Outcome {
	if i := m.find(lineAddr); i >= 0 {
		s := &m.slots[i]
		s.waiters = append(s.waiters, waiter)
		s.mask |= mask
		return Merged
	}
	n := len(m.slots)
	if n >= m.max {
		return Stalled
	}
	if m.slots == nil {
		m.slots = make([]mshrSlot[W], 0, m.max)
	}
	m.slots = m.slots[:n+1]
	s := &m.slots[n]
	s.line, s.mask = lineAddr, mask
	s.waiters = append(s.waiters[:0], waiter)
	return Primary
}

// Release completes the miss on lineAddr, returning all parked waiters
// (primary first, then merge order) and the union of requested sectors.
//
// The waiter slice belongs to the file: it stays valid until the next
// primary miss on this MSHR, which reuses the slot's storage. Callers
// iterate it before they allocate on the same file again.
func (m *MSHR[W]) Release(lineAddr uint64) (waiters []W, mask SectorMask, ok bool) {
	i := m.find(lineAddr)
	if i < 0 {
		return nil, 0, false
	}
	last := len(m.slots) - 1
	// Swap the released slot past the live ones; its waiter slice moves
	// with it and is reused by the next primary miss.
	m.slots[i], m.slots[last] = m.slots[last], m.slots[i]
	s := m.slots[last]
	m.slots = m.slots[:last]
	return s.waiters, s.mask, true
}

// Mask returns the union of sectors requested on an outstanding line.
func (m *MSHR[W]) Mask(lineAddr uint64) (SectorMask, bool) {
	if i := m.find(lineAddr); i >= 0 {
		return m.slots[i].mask, true
	}
	return 0, false
}

// Pending reports whether lineAddr has an outstanding entry.
func (m *MSHR[W]) Pending(lineAddr uint64) bool { return m.find(lineAddr) >= 0 }

// Len returns the number of outstanding entries.
func (m *MSHR[W]) Len() int { return len(m.slots) }

// Full reports whether a new primary miss would stall.
func (m *MSHR[W]) Full() bool { return len(m.slots) >= m.max }
