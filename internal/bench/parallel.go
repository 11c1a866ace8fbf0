package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netcrafter/internal/cluster"
	"netcrafter/internal/sim"
)

// The parallel cell executor. An experiment is a matrix of independent
// simulation cells — one (configuration, workload) pair each — and every
// cell builds its own System with its own Engine, so cells share no
// mutable state and fan out across a worker pool without coordination.
// Determinism is preserved by construction: each cell's result depends
// only on its own deterministic simulation, and aggregation reads the
// results in submission order, so any Parallel setting produces
// byte-identical reports (pinned by TestParallelMatchesSerial).

// Progress describes one finished experiment cell. The harness streams
// these to Options.Progress as cells complete (completion order, not
// submission order), letting front ends render live sweep progress.
type Progress struct {
	// Experiment is the id of the running experiment ("" for direct
	// runSuite callers outside the registry).
	Experiment string
	// Workload is the cell's workload name.
	Workload string
	// Config is the index of the cell's configuration within the batch.
	Config int
	// Cell counts finished cells in this batch (1-based); Cells is the
	// batch size.
	Cell, Cells int
	// SimCycles is the simulated time the cell covered; Wall is the
	// cell's whole host time (build, run and result collection);
	// Throughput is SimCycles/Wall in cycles/sec.
	SimCycles sim.Cycle
	Wall      time.Duration
	// Err is the cell's failure, if any (the batch still drains).
	Err error
}

// Throughput returns the cell's simulator speed in simulated cycles per
// host second (0 when the cell failed or took no measurable time).
func (p Progress) Throughput() float64 {
	if p.Wall <= 0 {
		return 0
	}
	return float64(p.SimCycles) / p.Wall.Seconds()
}

// sweepStats accumulates executed-cell totals across every batch of one
// measured run (see RunMeasured). Worker goroutines of concurrent
// batches may add simultaneously.
type sweepStats struct {
	cells     atomic.Int64
	simCycles atomic.Int64
}

func (s *sweepStats) add(cycles sim.Cycle) {
	if s == nil {
		return
	}
	s.cells.Add(1)
	s.simCycles.Add(int64(cycles))
}

// parallelism resolves the worker count for a batch of cells:
// Options.Parallel, defaulting to GOMAXPROCS, never less than 1 and —
// when cells > 0 — never more than the batch size, since a worker past
// the cell count would only be spawned to exit immediately. Pass
// cells = 0 for the batch-independent resolution (manifest metadata).
func (o Options) parallelism(cells int) int {
	p := o.Parallel
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		p = 1
	}
	if cells > 0 && p > cells {
		p = cells
	}
	return p
}

// cellKey maps a flat batch index to its (configuration, workload)
// coordinates.
func cellKey(o Options, i int) (cfg int, workload string) {
	return i / len(o.Workloads), o.Workloads[i%len(o.Workloads)]
}

// runCells is the worker pool every experiment fans out through: n
// independent cells, run(i) simulating cell i on a private system and
// returning its result with the simulated cycles it covered, while
// runCells times the call. label(i) names the cell and its
// configuration index for Progress events and errors. All cells run
// even if one fails; results come back in submission order and the
// error returned is the first failing cell in submission order, so
// failures are as deterministic as successes.
func runCells[R any](opt Options, n int, label func(i int) (string, int),
	run func(i int) (R, sim.Cycle, error)) ([]R, error) {
	out := make([]R, n)
	errs := make([]error, n)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		pmu  sync.Mutex // serializes Progress callbacks and the done count
		done int
	)
	for w := opt.parallelism(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				r, cycles, err := run(i)
				wall := time.Since(t0)
				out[i], errs[i] = r, err
				opt.stats.add(cycles)
				if opt.Progress != nil {
					name, ci := label(i)
					pmu.Lock()
					done++
					opt.Progress(Progress{
						Experiment: opt.exp,
						Workload:   name,
						Config:     ci,
						Cell:       done,
						Cells:      n,
						SimCycles:  cycles,
						Wall:       wall,
						Err:        err,
					})
					pmu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			name, _ := label(i)
			return nil, fmt.Errorf("bench: %s: %w", name, err)
		}
	}
	return out, nil
}

// runSuites executes the full (configuration x workload) matrix through
// the cell pool and returns one per-workload result map per
// configuration, in argument order. This is the fan-out point of every
// workload experiment: batching all of an experiment's configurations
// into one call keeps the pool saturated across suite boundaries.
func runSuites(opt Options, cfgs ...cluster.Config) ([]map[string]*cluster.Result, error) {
	label := func(i int) (string, int) {
		ci, name := cellKey(opt, i)
		return name, ci
	}
	out, err := runCells(opt, len(cfgs)*len(opt.Workloads), label,
		func(i int) (*cluster.Result, sim.Cycle, error) {
			ci, name := cellKey(opt, i)
			cfg := cfgs[ci] // value copy: per-cell tweaks stay local
			if opt.Shards > 1 && cfg.Shards == 0 {
				cfg.Shards = opt.Shards
			}
			r, err := cluster.RunOne(cfg, name, opt.Scale, opt.Limit)
			if r == nil {
				return nil, 0, err
			}
			return r, r.Cycles, err
		})
	if err != nil {
		return nil, err
	}
	results := make([]map[string]*cluster.Result, len(cfgs))
	for ci := range cfgs {
		m := make(map[string]*cluster.Result, len(opt.Workloads))
		for wi, name := range opt.Workloads {
			m[name] = out[ci*len(opt.Workloads)+wi]
		}
		results[ci] = m
	}
	return results, nil
}

// runSuite executes one configuration over the option's workloads — a
// one-configuration batch through the same pool.
func runSuite(cfg cluster.Config, opt Options) (map[string]*cluster.Result, error) {
	rs, err := runSuites(opt, cfg)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}
