// Package bench regenerates every table and figure of the paper's
// evaluation (Section 5) on the simulated system. Each experiment is a
// named recipe that runs the required configurations over the workload
// suite and reports the same rows/series the paper plots. Absolute
// numbers differ from the paper's testbed; the shapes (who wins, by
// how much, where the crossovers are) are the reproduction target —
// EXPERIMENTS.md records both.
//
// # Execution model
//
// An experiment expands into a matrix of cells, one (configuration,
// workload) simulation each. Cells are independent deterministic tasks
// on private engines, so the harness fans them out across a worker
// pool (Options.Parallel, default GOMAXPROCS) and re-aggregates in
// submission order; any parallelism setting yields byte-identical
// reports, only wall-clock changes. Options.Progress streams per-cell
// completion events for live sweep UIs.
//
// # Perf trajectory
//
// RunSweep executes a list of experiments and emits a Trajectory — a
// machine-readable manifest (BENCH_<scale>.json) fingerprinting the
// run (scale, seed, workloads, fabric hash, git describe) and
// recording the simulator's own throughput per experiment (cells/sec,
// simulated cycles per host second). Manifests double as checkpoints:
// a resumed sweep skips experiments whose reports the previous
// manifest already holds. See EXPERIMENTS.md, "Reproducing this file".
package bench

import (
	"fmt"
	"sort"
	"strings"

	"netcrafter/internal/cluster"
	"netcrafter/internal/sim"
	"netcrafter/internal/stats"
	"netcrafter/internal/workload"
)

// Options controls an experiment run.
type Options struct {
	// Scale sizes the workloads (Tiny for smoke tests, Small for
	// benches, Medium for the full regeneration).
	Scale workload.Scale
	// Workloads restricts the suite (nil = all fifteen).
	Workloads []string
	// Limit is the per-kernel cycle budget.
	Limit sim.Cycle
	// Parallel caps the worker goroutines fanning experiment cells out
	// (<= 0 means GOMAXPROCS). Every simulation cell is an independent
	// deterministic task on its own engine, so any setting produces
	// byte-identical reports; Parallel only changes wall-clock time.
	Parallel int
	// Progress, when set, receives one event per finished cell, in
	// completion order. Calls within one batch are serialized; a run
	// that executes batches concurrently may invoke it from several
	// goroutines.
	Progress func(Progress)
	// Backend selects the simulation fidelity ("" = cycle). The flow
	// backend runs only experiments tagged FidelityAny (see IDsFor);
	// asking it for a cycle-fidelity experiment is an error, not a
	// silent downgrade.
	Backend cluster.Backend
	// Shards partitions every cell's engine across that many worker
	// goroutines (cluster.Config.Shards; <= 1 means serial). Applied
	// only to cells whose configuration leaves Shards unset, so
	// experiments that pin their own shard count (ext-shard) keep it.
	// Reports are byte-identical at any setting — the partitioned
	// engine reproduces the serial schedule exactly (DESIGN.md section
	// 2.15) — only wall-clock changes. Cycle backend only.
	Shards int

	// exp is the id of the experiment being run, stamped by Run for
	// Progress events.
	exp string
	// stats, when set (RunMeasured), accumulates executed-cell totals
	// for trajectory manifests.
	stats *sweepStats
}

// DefaultOptions returns bench-friendly options: the Small scale over
// a representative six-workload subset.
func DefaultOptions() Options {
	return Options{
		Scale:     workload.Small(),
		Workloads: []string{"GUPS", "SPMV", "MT", "MIS", "BS", "SYR2K"},
		Limit:     200_000_000,
	}
}

// FullOptions runs every workload (used by cmd/netcrafter-bench).
func FullOptions() Options {
	return Options{Scale: workload.Small(), Workloads: workload.Names(), Limit: 500_000_000}
}

func (o Options) withDefaults() Options {
	if o.Scale.Steps == 0 {
		o.Scale = workload.Small()
	}
	if len(o.Workloads) == 0 {
		o.Workloads = workload.Names()
	}
	if o.Limit == 0 {
		o.Limit = 200_000_000
	}
	return o
}

// Row is one row of a report: a label (usually the workload) plus one
// value per column.
type Row struct {
	Label  string    `json:"label"`
	Values []float64 `json:"values"`
}

// Report is the regenerated form of one paper artifact.
type Report struct {
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Columns []string `json:"columns"`
	Rows    []Row    `json:"rows"`
	// Notes carries the expected shape from the paper for comparison.
	Notes string `json:"notes,omitempty"`
}

// AddRow appends a row.
func (r *Report) AddRow(label string, values ...float64) {
	if len(values) != len(r.Columns) {
		panic(fmt.Sprintf("bench: row %s has %d values for %d columns", label, len(values), len(r.Columns)))
	}
	r.Rows = append(r.Rows, Row{Label: label, Values: values})
}

// Mean appends a geometric-mean row over the current rows for ratio
// columns (label "GMEAN").
func (r *Report) Mean() {
	if len(r.Rows) == 0 {
		return
	}
	vals := make([]float64, len(r.Columns))
	for c := range r.Columns {
		xs := make([]float64, 0, len(r.Rows))
		for _, row := range r.Rows {
			if row.Values[c] > 0 {
				xs = append(xs, row.Values[c])
			}
		}
		if len(xs) > 0 {
			vals[c] = stats.GeoMean(xs)
		}
	}
	r.Rows = append(r.Rows, Row{Label: "GMEAN", Values: vals})
}

// Value returns the value at (rowLabel, column), or ok=false.
func (r *Report) Value(rowLabel, column string) (float64, bool) {
	ci := -1
	for i, c := range r.Columns {
		if c == column {
			ci = i
		}
	}
	if ci < 0 {
		return 0, false
	}
	for _, row := range r.Rows {
		if row.Label == rowLabel {
			return row.Values[ci], true
		}
	}
	return 0, false
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	fmt.Fprintf(&b, "%-10s", "")
	for _, c := range r.Columns {
		fmt.Fprintf(&b, " %14s", c)
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s", row.Label)
		for _, v := range row.Values {
			fmt.Fprintf(&b, " %14.3f", v)
		}
		b.WriteByte('\n')
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "paper shape: %s\n", r.Notes)
	}
	return b.String()
}

// Fidelity states which simulation backends can regenerate an
// experiment faithfully.
type Fidelity int

const (
	// FidelityCycle marks experiments whose numbers depend on
	// cycle-level mechanisms (workload memory traces, controller
	// microbehavior, per-flit arbitration). They refuse to run on the
	// flow backend. The zero value: experiments are cycle-only unless
	// they opt out.
	FidelityCycle Fidelity = iota
	// FidelityAny marks experiments defined purely over communication
	// plans, which every backend can run (at its own accuracy — see
	// ext-calibrate for the measured flow-vs-cycle error).
	FidelityAny
)

// Experiment is one regenerable artifact.
type Experiment struct {
	ID    string
	Title string
	// Fidelity is the least-detailed backend class that can regenerate
	// this artifact (zero value = FidelityCycle).
	Fidelity Fidelity
	Run      func(Options) (*Report, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// IDs lists registered experiments in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// IDsFor lists the experiments backend b can run, in sorted order:
// every experiment for the cycle backend, only FidelityAny ones for
// the flow backend.
func IDsFor(b cluster.Backend) []string {
	if b.Norm() == cluster.BackendCycle {
		return IDs()
	}
	ids := make([]string, 0, len(registry))
	for id, e := range registry {
		if e.Fidelity == FidelityAny {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	return e, nil
}

// Run executes one experiment by id.
func Run(id string, opt Options) (*Report, error) {
	e, err := Get(id)
	if err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if opt.Backend.Norm() != cluster.BackendCycle && e.Fidelity != FidelityAny {
		return nil, fmt.Errorf("bench: experiment %q needs the cycle backend (backend %q can run: %v)",
			id, opt.Backend.Norm(), IDsFor(opt.Backend))
	}
	if opt.Shards > 1 && opt.Backend.Norm() != cluster.BackendCycle {
		return nil, fmt.Errorf("bench: Shards=%d partitions the cycle backend's engine; backend %q cannot shard — run with Shards <= 1", opt.Shards, opt.Backend.Norm())
	}
	opt.exp = id
	return e.Run(opt)
}

// speedup returns base/new cycle ratio.
func speedup(base, new *cluster.Result) float64 {
	if new.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(new.Cycles)
}
