package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// This file pins Engine.round's due set and its order to a sort-based
// reference: a model that keeps one armed cycle per ticker, takes every
// armed ticker due this cycle, and sorts them.

// roundHarness drives random arms through the engine and the model.
type roundHarness struct {
	t     *testing.T
	e     *Engine
	rng   *rand.Rand
	ts    []*roundTicker
	log   []int // registration indices ticked in the current round
	model roundModel
}

// roundModel is the reference: one armed cycle per ticker.
type roundModel struct {
	wakeAt []Cycle
}

func (m *roundModel) arm(i int, at Cycle) {
	if at < m.wakeAt[i] {
		m.wakeAt[i] = at
	}
}

// due takes the round's due set at cycle now: every armed ticker whose
// cycle has come, disarmed, sorted.
func (m *roundModel) due(now Cycle) []int {
	var out []int
	for i, at := range m.wakeAt {
		if at <= now {
			out = append(out, i)
			m.wakeAt[i] = CycleMax
		}
	}
	sort.Ints(out)
	return out
}

// roundTicker logs each tick and draws random wakes of other tickers,
// its own next hint, and now and then a registration mid-round.
type roundTicker struct {
	h    *roundHarness
	idx  int
	w    *Waker
	hint Cycle // last hint drawn; CycleMax parks
}

func (r *roundTicker) Tick(now Cycle) bool {
	h := r.h
	h.log = append(h.log, r.idx)
	for k := h.rng.Intn(3); k > 0; k-- {
		j := h.rng.Intn(len(h.ts))
		// now lands in near for the next round, later cycles in near or
		// the heap.
		at := now + Cycle(h.rng.Intn(8))
		h.ts[j].w.Wake(at)
		h.model.arm(j, at)
	}
	switch p := h.rng.Intn(10); {
	case p == 0:
		r.hint = CycleMax
	case p == 1:
		r.hint = now - 1 // blocked: the engine retries at now+1
	default:
		r.hint = now + Cycle(1+h.rng.Intn(12))
	}
	if h.rng.Intn(200) == 0 {
		h.register()
	}
	return true
}

func (r *roundTicker) NextWake(Cycle) Cycle { return r.hint }
func (r *roundTicker) SetWaker(w *Waker)    { r.w = w }

func (h *roundHarness) register() {
	r := &roundTicker{h: h, idx: len(h.ts)}
	h.ts = append(h.ts, r)
	h.model.wakeAt = append(h.model.wakeAt, CycleMax)
	h.e.Register("t", r)
	h.model.arm(r.idx, h.e.Now()) // every ticker gets a first tick
}

// TestRoundMatchesSortedReference runs random arms through near, the
// heap and tickers registered between rounds and inside one, across
// more than one bitmap word. Each round must tick exactly the
// reference's due set, in ascending registration order.
func TestRoundMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		h := &roundHarness{t: t, e: NewEngine(), rng: rand.New(rand.NewSource(seed))}
		n := 60 + h.rng.Intn(90)
		for i := 0; i < n; i++ {
			h.register()
		}
		rounds, multi := 0, 0
		for step := 0; step < 600; step++ {
			if h.rng.Intn(40) == 0 {
				h.register()
			}
			now := h.e.Now()
			want := h.model.due(now)
			h.log = h.log[:0]
			h.e.Step()
			if !slices.Equal(h.log, want) {
				t.Fatalf("seed %d cycle %d: ticked %v, reference due set %v", seed, now, h.log, want)
			}
			for _, i := range want {
				at := h.ts[i].hint
				if at <= now {
					at = now + 1
				}
				h.model.arm(i, at)
			}
			rounds++
			if len(want) > 1 {
				multi++
			}
		}
		if multi < rounds/2 || len(h.ts) <= 64 {
			t.Fatalf("seed %d: %d of %d rounds had several due tickers, %d tickers: the stream is too thin",
				seed, multi, rounds, len(h.ts))
		}
	}
}
