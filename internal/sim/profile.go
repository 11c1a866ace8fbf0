package sim

import (
	"sort"
	"time"
)

// TickProbe observes every component tick the engine performs: the
// component's registration index, the cycle, and whether the tick
// reported progress. Probes run inline on the engine goroutine and must
// not mutate the simulation; they exist for the timeline recorder.
type TickProbe func(idx int, now Cycle, busy bool)

// ComponentCost is one component's row in the engine's host-time
// self-profile: how many ticks it received, how many reported progress,
// and how much host wall-clock time its Tick calls consumed.
type ComponentCost struct {
	Name  string
	Ticks int64
	Busy  int64
	Host  time.Duration
}

// componentCost is the per-index accumulator (name joined at read time).
type componentCost struct {
	ticks int64
	busy  int64
	host  time.Duration
}

// SetTickProbe installs (or, with nil, removes) the tick probe. With no
// probe and profiling off the engine's hot loop is unchanged — one
// predictable branch per tick, no allocation.
func (e *Engine) SetTickProbe(p TickProbe) {
	e.probe = p
	e.observed = e.probe != nil || e.profiling
}

// EnableProfile turns on per-component host-time attribution: every
// Tick call is bracketed by host clock reads and charged to the
// component. The overhead (two time.Now per tick) is why it is opt-in;
// results come back from Profile.
func (e *Engine) EnableProfile() {
	e.profiling = true
	e.observed = true
}

// Name returns the registration name of component idx ("" when out of
// range).
func (e *Engine) Name(idx int) string {
	if idx < 0 || idx >= len(e.names) {
		return ""
	}
	return e.names[idx]
}

// Profile returns the per-component host-time profile accumulated since
// EnableProfile, sorted by host time descending (ties by name). Nil
// when profiling was never enabled.
func (e *Engine) Profile() []ComponentCost {
	if !e.profiling {
		return nil
	}
	out := make([]ComponentCost, 0, len(e.costs))
	for idx, c := range e.costs {
		if c.ticks == 0 {
			continue
		}
		out = append(out, ComponentCost{
			Name: e.names[idx], Ticks: c.ticks, Busy: c.busy, Host: c.host,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Host != out[j].Host {
			return out[i].Host > out[j].Host
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// tickObserved is the slow-path tick wrapper used while a probe or the
// profiler is attached.
func (e *Engine) tickObserved(idx int) bool {
	var start time.Time
	if e.profiling {
		start = time.Now()
	}
	busy := e.tickers[idx].Tick(e.now)
	if e.profiling {
		for len(e.costs) <= idx {
			e.costs = append(e.costs, componentCost{})
		}
		c := &e.costs[idx]
		c.host += time.Since(start)
		c.ticks++
		if busy {
			c.busy++
		}
	}
	if e.probe != nil {
		e.probe(idx, e.now, busy)
	}
	return busy
}
