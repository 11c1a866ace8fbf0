// Package timeline is the simulator's event timeline: a ring-buffered
// recording of *when* things happened, complementing the aggregate
// counters of internal/obs with time-resolved tracks that can be
// replayed after a run. It records three event classes:
//
//   - Execute slices: which engine component ticked over which cycle
//     interval, fed by sim.Engine's tick probe. Together with the
//     engine's host-time self-profile (sim.Engine.Profile) this answers
//     "which switch/CU/controller costs the most real time".
//   - Windowed tracks: per-link utilization and per-queue occupancy
//     aggregated into fixed cycle windows — the raw material for the
//     congestion heatmap — plus per-window event counts (a
//     controller's ejections, stitches, trims, pooling and
//     un-stitching).
//   - State dwells: how long a transaction (identified by its ID)
//     sat in each pipeline state, fed by internal/txn, so a single
//     request can be followed CU → TLB → DRAM → RDMA → controller.
//
// Everything exports as Chrome Trace Event JSON (WriteTrace), loadable
// in Perfetto or chrome://tracing: one track per component, counter
// tracks per link/queue, and async spans per transaction ID. Heatmap
// renders the per-link utilization × cycle-window matrix as a terminal
// report.
//
// Like the rest of the observability layer, the timeline is free when
// detached: a nil *Timeline or *Track records nothing and performs zero
// allocations (pinned by the package benchmarks), so components carry
// unconditional instrumentation. A Timeline belongs to exactly one
// simulated system and, like obs.Span, is stamped from the single
// engine goroutine — it is not internally locked.
package timeline

import (
	"time"

	"netcrafter/internal/sim"
)

// Agg selects how a windowed track folds observations within a window.
type Agg uint8

const (
	// AggSum totals observations per window (flits moved, bytes sent).
	AggSum Agg = iota
	// AggMax keeps the window maximum (queue occupancy peaks).
	AggMax
)

// trackKind classifies what a track's events mean to the exporter.
type trackKind uint8

const (
	kindSlice  trackKind = iota // component execute slices
	kindWindow                  // windowed counter samples
	kindDwell                   // transaction state dwells
)

// Event is one ring-buffer record. Interpretation depends on the
// track's kind: a slice covers [Start, Start+Dur); a window sample
// carries its window's aggregate in Value; a dwell covers the cycles a
// transaction (ID) spent in the track's state.
type Event struct {
	Track int32
	Start sim.Cycle
	Dur   sim.Cycle
	ID    uint64
	Value float64
}

// Track is one named event stream of a Timeline. Windowed tracks
// (NewUtilTrack, NewOccupancyTrack, NewCountTrack) aggregate
// observations into fixed cycle windows, emitting one ring event per
// non-empty window and retaining the full per-window history for the
// heatmap; dwell tracks emit one event per closed dwell. A nil *Track
// records nothing.
type Track struct {
	tl     *Timeline
	id     int32
	name   string
	kind   trackKind
	agg    Agg
	window sim.Cycle
	// capacity is the maximum possible Value per window (rate × window
	// for a link-utilization track); 0 means unnormalized.
	capacity float64

	curWin int64
	curVal float64
	curN   int64
	// sums is the full per-window history (index = window number),
	// kept outside the ring so the heatmap sees the whole run even
	// after the ring wrapped.
	sums []float64
}

// compState tracks the open execute slice of one engine component.
type compState struct {
	track    int32
	open     bool
	start    sim.Cycle
	lastBusy sim.Cycle
}

// DefaultCapacity is the ring size used when New is given cap <= 0:
// 256Ki events (~12 MB). When the ring wraps, the oldest events are
// dropped — the tail of the run is what survives, and Dropped reports
// how much was lost.
const DefaultCapacity = 1 << 18

// Timeline is the ring-buffered event recorder. Create with New,
// attach with AttachEngine / the component wiring in
// cluster.System.AttachObs, and export with WriteTrace or Heatmap
// after the run.
type Timeline struct {
	events []Event
	n      int // total events ever recorded
	tracks []*Track
	comps  []compState
	eng    *sim.Engine
	end    sim.Cycle // highest cycle seen; Finish may raise it
}

// New returns an empty timeline whose ring holds capacity events
// (DefaultCapacity when capacity <= 0).
func New(capacity int) *Timeline {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Timeline{events: make([]Event, 0, capacity)}
}

// record appends an event, overwriting the oldest once the ring is
// full.
func (tl *Timeline) record(ev Event) {
	if ev.Start+ev.Dur > tl.end {
		tl.end = ev.Start + ev.Dur
	}
	if len(tl.events) < cap(tl.events) {
		tl.events = append(tl.events, ev)
	} else {
		tl.events[tl.n%cap(tl.events)] = ev
	}
	tl.n++
}

// Events returns how many events were recorded in total, including any
// the ring has since dropped.
func (tl *Timeline) Events() int {
	if tl == nil {
		return 0
	}
	return tl.n
}

// Dropped returns how many recorded events the ring overwrote.
func (tl *Timeline) Dropped() int {
	if tl == nil {
		return 0
	}
	if d := tl.n - cap(tl.events); d > 0 {
		return d
	}
	return 0
}

// End returns the highest cycle the timeline has seen.
func (tl *Timeline) End() sim.Cycle {
	if tl == nil {
		return 0
	}
	return tl.end
}

// newTrack registers a track; nil receiver returns a nil track, so a
// detached wiring pass is free.
func (tl *Timeline) newTrack(name string, kind trackKind, agg Agg, window sim.Cycle, capacity float64) *Track {
	if tl == nil {
		return nil
	}
	if window < 1 {
		window = 1
	}
	t := &Track{
		tl: tl, id: int32(len(tl.tracks)), name: name,
		kind: kind, agg: agg, window: window, capacity: capacity,
		curWin: -1,
	}
	tl.tracks = append(tl.tracks, t)
	return t
}

// NewUtilTrack registers a windowed utilization track: observations sum
// per window and normalize against capacityPerCycle × window (a link
// moving rate flits/cycle passes its rate). The heatmap rows are these
// tracks.
func (tl *Timeline) NewUtilTrack(name string, window sim.Cycle, capacityPerCycle float64) *Track {
	if window < 1 {
		window = 1
	}
	return tl.newTrack(name, kindWindow, AggSum, window, capacityPerCycle*float64(window))
}

// NewOccupancyTrack registers a windowed occupancy track keeping each
// window's maximum observation (queue depth peaks).
func (tl *Timeline) NewOccupancyTrack(name string, window sim.Cycle) *Track {
	return tl.newTrack(name, kindWindow, AggMax, window, 0)
}

// NewCountTrack registers a windowed event-count track: observations sum
// per window with no capacity, so it exports as a counter but is not a
// heatmap row (controller stitch/trim/pool events).
func (tl *Timeline) NewCountTrack(name string, window sim.Cycle) *Track {
	return tl.newTrack(name, kindWindow, AggSum, window, 0)
}

// NewDwellTrack registers a dwell track; each Dwell call records one
// closed interval attributed to an ID (a transaction's or a request's).
func (tl *Timeline) NewDwellTrack(name string) *Track {
	return tl.newTrack(name, kindDwell, AggSum, 1, 0)
}

// Name returns the track name ("" for nil).
func (t *Track) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Observe folds v into the window containing cycle now, flushing the
// previous window to the ring when now has moved past it. A nil
// receiver records nothing and allocates nothing.
func (t *Track) Observe(now sim.Cycle, v float64) {
	if t == nil {
		return
	}
	win := int64(now / t.window)
	if win != t.curWin {
		t.flush()
		t.curWin = win
	}
	t.curN++
	switch t.agg {
	case AggMax:
		if t.curN == 1 || v > t.curVal {
			t.curVal = v
		}
	default:
		t.curVal += v
	}
}

// flush closes the current window: one ring event plus the full-history
// slot for the heatmap.
func (t *Track) flush() {
	if t.curWin < 0 || t.curN == 0 {
		return
	}
	start := sim.Cycle(t.curWin) * t.window
	t.tl.record(Event{Track: t.id, Start: start, Dur: t.window, Value: t.curVal})
	for int64(len(t.sums)) <= t.curWin {
		t.sums = append(t.sums, 0)
	}
	t.sums[t.curWin] = t.curVal
	t.curVal, t.curN = 0, 0
}

// Dwell records that transaction id spent dur cycles, starting at
// start, in this track's state. A nil receiver is free.
func (t *Track) Dwell(start, dur sim.Cycle, id uint64) {
	if t == nil {
		return
	}
	t.tl.record(Event{Track: t.id, Start: start, Dur: dur, ID: id})
}

// Windows returns the track's full per-window history (window index →
// aggregated value). Partial current windows are excluded until Finish.
func (t *Track) Windows() []float64 {
	if t == nil {
		return nil
	}
	return t.sums
}

// Utilization returns the track's per-window utilization history
// (values normalized by the window capacity), or the raw history for
// unnormalized tracks.
func (t *Track) Utilization() []float64 {
	if t == nil {
		return nil
	}
	if t.capacity <= 0 {
		return t.sums
	}
	out := make([]float64, len(t.sums))
	for i, v := range t.sums {
		out[i] = v / t.capacity
	}
	return out
}

// AttachEngine wires the timeline to a wake-scheduled engine: every
// component tick feeds an execute-slice track (consecutive busy cycles
// coalesce into one slice). Call after the system is built so every
// component is registered. A nil timeline detaches nothing and sets no
// probe.
func (tl *Timeline) AttachEngine(e *sim.Engine) {
	if tl == nil || e == nil {
		return
	}
	tl.eng = e
	e.SetTickProbe(func(idx int, now sim.Cycle, busy bool) {
		tl.tickSlice(idx, now, busy)
	})
}

// tickSlice coalesces per-component busy ticks into execute slices: a
// busy tick extends the open slice when contiguous with it, otherwise
// the open slice is flushed and a new one starts.
func (tl *Timeline) tickSlice(idx int, now sim.Cycle, busy bool) {
	if now >= tl.end {
		tl.end = now + 1
	}
	for len(tl.comps) <= idx {
		tl.comps = append(tl.comps, compState{track: -1})
	}
	c := &tl.comps[idx]
	if c.track < 0 {
		t := tl.newTrack(tl.eng.Name(idx), kindSlice, AggSum, 1, 0)
		c.track = t.id
	}
	if !busy {
		return
	}
	if c.open && now == c.lastBusy+1 {
		c.lastBusy = now
		return
	}
	if c.open {
		tl.record(Event{Track: c.track, Start: c.start, Dur: c.lastBusy - c.start + 1})
	}
	c.open = true
	c.start, c.lastBusy = now, now
}

// Finish closes every open slice and partial window at cycle end (pass
// 0 to use the highest cycle seen). Call once, after the run, before
// exporting.
func (tl *Timeline) Finish(end sim.Cycle) {
	if tl == nil {
		return
	}
	if end > tl.end {
		tl.end = end
	}
	for i := range tl.comps {
		c := &tl.comps[i]
		if c.open {
			tl.record(Event{Track: c.track, Start: c.start, Dur: c.lastBusy - c.start + 1})
			c.open = false
		}
	}
	for _, t := range tl.tracks {
		if t.kind == kindWindow {
			t.flush()
			t.curWin = -1
		}
	}
}

// ordered returns the retained ring events oldest-first.
func (tl *Timeline) ordered() []Event {
	if tl.n <= len(tl.events) || len(tl.events) == 0 {
		return tl.events
	}
	cut := tl.n % cap(tl.events)
	out := make([]Event, 0, len(tl.events))
	out = append(out, tl.events[cut:]...)
	out = append(out, tl.events[:cut]...)
	return out
}

// hostDuration is a display helper for profile rendering.
func hostDuration(d time.Duration) string { return d.Round(time.Microsecond).String() }
