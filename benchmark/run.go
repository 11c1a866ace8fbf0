package main

import (
	"slices"
	"time"
)

// cellRuns is every execution of one cell in an invocation.
type cellRuns struct {
	cell          cell
	plain, traced []*sample
	// setups are the set-up times of the untraced executions that
	// passed, and of the extra set-ups that followed them.
	setups []time.Duration
}

// setupRepeats is how many extra times a cell is set up after each
// untraced execution, while the extra set-ups cost under a tenth of the
// execution: set-up is a small part of most cells, and its median needs
// more samples than a run has executions.
const setupRepeats = 4

// run is one invocation's measurement of one workload.
type run struct {
	bench bench
	seed  uint64
	cells []*cellRuns
	// checked reports whether outputs were compared with committed
	// goldens; for seeds without goldens only the invariants run.
	checked           bool
	attempted, failed int
	errs              []string
	// cpuRef and memRef are the speed kernels' median times in seconds
	// while the cells ran; scale turns raw host times into reference
	// seconds.
	cpuRef, memRef, scale float64
}

// measure runs one workload: an untimed warm-up cell, then sweeps of
// its cells one at a time on this goroutine while the sampler times
// the host's speed. Untraced, it keeps sweeping until seconds have
// passed (at least one full sweep). Traced, it makes one untraced
// sweep for the stage timings and the profiler's overhead, then traced
// sweeps until seconds have passed.
func measure(b bench, seed uint64, seconds float64, traced bool, gold golden) (*run, error) {
	r := &run{bench: b, seed: seed, checked: gold.has(b.name, seed)}
	for _, c := range b.cells(seed) {
		r.cells = append(r.cells, &cellRuns{cell: c})
	}
	if w := runCell(shrink(r.cells[0].cell), false); w.err != nil {
		r.attempted++
		r.fail("warm-up", w.err)
	}
	sm, err := startSampler()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	if traced {
		r.sweep(false, time.Time{}, gold)
	}
	r.sweep(traced, deadline, gold)
	sm.finish()
	r.cpuRef, r.memRef, r.scale = medianSecs(sm.cpu), medianSecs(sm.mem), sm.scale()
	return r, nil
}

// sweep executes the cells in order, round after round: the first
// round always completes; later ones stop before a cell whose last
// execution would run past the deadline.
func (r *run) sweep(traced bool, deadline time.Time, gold golden) {
	for i := 0; ; i++ {
		cr := r.cells[i%len(r.cells)]
		done := &cr.plain
		if traced {
			done = &cr.traced
		}
		if i >= len(r.cells) && time.Now().Add((*done)[len(*done)-1].elapsed).After(deadline) {
			return
		}
		s := runCell(cr.cell, traced)
		if s.err == nil && r.checked {
			s.err = gold.check(r.bench.name, r.seed, cr.cell.name, s.out)
		}
		r.attempted++
		if s.err != nil {
			r.fail(cr.cell.name, s.err)
		}
		*done = append(*done, s)
		if s.err == nil && !traced {
			r.setUpAgain(cr, s)
		}
	}
}

// setUpAgain records an execution's set-up time and sets the cell up
// up to setupRepeats more times, while that costs under a tenth of the
// execution's host time.
func (r *run) setUpAgain(cr *cellRuns, s *sample) {
	cr.setups = append(cr.setups, s.setup())
	var spent time.Duration
	for k := 0; k < setupRepeats && spent+s.setup() < s.wall()/10; k++ {
		d, err := timeSetUp(cr.cell)
		r.attempted++
		if err != nil {
			r.fail(cr.cell.name+" set-up", err)
			return
		}
		cr.setups = append(cr.setups, d)
		spent += d
	}
}

func (r *run) fail(cell string, err error) {
	r.failed++
	if msg := cell + ": " + err.Error(); !slices.Contains(r.errs, msg) {
		r.errs = append(r.errs, msg)
	}
}

// ok returns the executions that passed every check.
func ok(ss []*sample) []*sample {
	var out []*sample
	for _, s := range ss {
		if s.err == nil {
			out = append(out, s)
		}
	}
	return out
}
