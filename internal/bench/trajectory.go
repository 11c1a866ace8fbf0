package bench

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"time"

	"netcrafter/internal/cluster"
)

// The trajectory exporter: every sweep writes a machine-readable
// manifest (BENCH_<scale>.json) recording what ran (experiments,
// workloads, scale, seed, fabric fingerprint) and how fast the
// simulator itself ran (cells/sec, simulated cycles per host second),
// so the repo accumulates a perf trajectory across revisions that tools
// can diff without parsing text tables. Report values inside a manifest
// are deterministic — independent of Parallel and of host speed — while
// the throughput fields are measurement metadata and are expected to
// vary run to run.

// TrajectorySchema identifies the manifest format; bump on breaking
// changes.
const TrajectorySchema = "netcrafter-bench/v1"

// RunStats totals the cells a measured run actually executed (resumed
// entries excluded).
type RunStats struct {
	// Cells is the number of (configuration, workload) simulations run.
	Cells int
	// SimCycles is the simulated time covered, summed over cells.
	SimCycles int64
	// Wall is the host wall-clock the run took end to end.
	Wall time.Duration
}

// CellsPerSec returns executed cells per host second.
func (s RunStats) CellsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Cells) / s.Wall.Seconds()
}

// SimCyclesPerSec returns simulated cycles advanced per host second,
// aggregated over however many workers ran concurrently.
func (s RunStats) SimCyclesPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.SimCycles) / s.Wall.Seconds()
}

// RunMeasured executes one experiment like Run and additionally reports
// the executed-cell totals, for trajectory manifests.
func RunMeasured(id string, opt Options) (*Report, RunStats, error) {
	var acc sweepStats
	opt.stats = &acc
	t0 := time.Now()
	rep, err := Run(id, opt)
	st := RunStats{
		Cells:     int(acc.cells.Load()),
		SimCycles: acc.simCycles.Load(),
		Wall:      time.Since(t0),
	}
	return rep, st, err
}

// TrajectoryEntry is one experiment's slot in a manifest: its report
// plus the cost of producing it.
type TrajectoryEntry struct {
	ID              string  `json:"id"`
	Cells           int     `json:"cells"`
	SimCycles       int64   `json:"sim_cycles"`
	WallSeconds     float64 `json:"wall_seconds"`
	CellsPerSec     float64 `json:"cells_per_sec"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	// Resumed marks an entry carried over unchanged from a previous
	// manifest by a -resume run (its cost fields are the old run's).
	Resumed bool    `json:"resumed,omitempty"`
	Report  *Report `json:"report"`
}

// Trajectory is the manifest of one sweep: environment fingerprint,
// aggregate throughput, and one entry per experiment.
type Trajectory struct {
	Schema    string `json:"schema"`
	Tool      string `json:"tool"`
	Git       string `json:"git,omitempty"`
	GoVersion string `json:"go"`
	StartedAt string `json:"started_at"`

	// Scale, Workloads and Seed pin what was simulated; TopoHash
	// fingerprints the default fabric (FNV-64a over its DOT form).
	// Resume refuses to mix manifests where any of these differ.
	Scale     string   `json:"scale"`
	Workloads []string `json:"workloads"`
	Seed      uint64   `json:"seed"`
	TopoHash  string   `json:"topo_hash"`
	// Backend records the simulation fidelity the sweep ran at ("cycle"
	// or "flow"; absent in pre-backend manifests means cycle). Resume
	// refuses to mix backends, so flow sweeps never silently overwrite
	// cycle-fidelity reports.
	Backend string `json:"backend,omitempty"`
	// Parallel is the worker cap the sweep ran with (report values do
	// not depend on it; wall times do).
	Parallel int `json:"parallel"`
	// Shards is the engine shard count every cell ran with (1, or
	// absent in older manifests, means the serial engine). Sharding is
	// byte-identical by design (DESIGN.md section 2.15), but like
	// Backend it changes which engine produced the reports, so resume
	// refuses a mismatch — an
	// equivalence regression must surface as a failure, never hide
	// inside a mixed manifest.
	Shards int `json:"shards"`
	// HostCPUs and GoMaxProcs fingerprint the host the throughput
	// numbers were measured on: runtime.NumCPU and the effective
	// GOMAXPROCS at sweep time. Measurement metadata — resume ignores
	// them, but a trajectory diff needs them to tell "the simulator got
	// slower" from "the host got smaller".
	HostCPUs   int `json:"host_cpus,omitempty"`
	GoMaxProcs int `json:"gomaxprocs,omitempty"`

	// Aggregates over every entry, resumed ones included.
	Cells           int     `json:"cells"`
	SimCycles       int64   `json:"sim_cycles"`
	WallSeconds     float64 `json:"wall_seconds"`
	CellsPerSec     float64 `json:"cells_per_sec"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`

	Experiments []TrajectoryEntry `json:"experiments"`
}

// Entry returns the entry with the given experiment id, or nil.
func (t *Trajectory) Entry(id string) *TrajectoryEntry {
	if t == nil {
		return nil
	}
	for i := range t.Experiments {
		if t.Experiments[i].ID == id {
			return &t.Experiments[i]
		}
	}
	return nil
}

// finalize recomputes the aggregate fields from the entries.
func (t *Trajectory) finalize() {
	t.Cells, t.SimCycles, t.WallSeconds = 0, 0, 0
	for _, e := range t.Experiments {
		t.Cells += e.Cells
		t.SimCycles += e.SimCycles
		t.WallSeconds += e.WallSeconds
	}
	if t.WallSeconds > 0 {
		t.CellsPerSec = float64(t.Cells) / t.WallSeconds
		t.SimCyclesPerSec = float64(t.SimCycles) / t.WallSeconds
	} else {
		t.CellsPerSec, t.SimCyclesPerSec = 0, 0
	}
}

// Write emits the manifest as indented JSON.
func (t *Trajectory) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// ReadTrajectory parses a manifest and checks its schema.
func ReadTrajectory(r io.Reader) (*Trajectory, error) {
	var t Trajectory
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("bench: trajectory: %w", err)
	}
	if t.Schema != TrajectorySchema {
		return nil, fmt.Errorf("bench: trajectory schema %q, want %q", t.Schema, TrajectorySchema)
	}
	return &t, nil
}

// topoFingerprint hashes the default fabric's DOT rendering.
func topoFingerprint() string {
	g, err := cluster.Baseline().Graph()
	if err != nil {
		return "invalid"
	}
	h := fnv.New64a()
	_, _ = io.WriteString(h, g.DOT())
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}

// SweepOptions configures RunSweep.
type SweepOptions struct {
	Options
	// ScaleName is the human tag recorded in the manifest ("tiny",
	// "small", "medium").
	ScaleName string
	// Resume, when set, carries over entries for experiments the
	// previous manifest already holds instead of re-running them.
	Resume *Trajectory
	// OnExperiment, when set, is called before each experiment starts
	// (resumed=true for skipped ones). index is 0-based over ids.
	OnExperiment func(id string, index, total int, resumed bool)
}

// canResume reports whether prev's pinned inputs match the sweep about
// to run.
func canResume(prev *Trajectory, so SweepOptions, topoHash string) error {
	if prev.Scale != so.ScaleName {
		return fmt.Errorf("bench: resume: manifest scale %q, run is %q", prev.Scale, so.ScaleName)
	}
	if prev.TopoHash != topoHash {
		return fmt.Errorf("bench: resume: manifest topo hash %s, current fabric is %s", prev.TopoHash, topoHash)
	}
	if len(prev.Workloads) != len(so.Workloads) {
		return fmt.Errorf("bench: resume: manifest has %d workloads, run has %d", len(prev.Workloads), len(so.Workloads))
	}
	for i, w := range prev.Workloads {
		if so.Workloads[i] != w {
			return fmt.Errorf("bench: resume: workload set differs at %d: %q vs %q", i, w, so.Workloads[i])
		}
	}
	if prev.Seed != cluster.Baseline().Seed {
		return fmt.Errorf("bench: resume: manifest seed %d, run seed %d", prev.Seed, cluster.Baseline().Seed)
	}
	if pb, rb := cluster.Backend(prev.Backend).Norm(), so.Backend.Norm(); pb != rb {
		return fmt.Errorf("bench: resume: manifest backend %q, run backend %q", pb, rb)
	}
	if ps, rs := normShards(prev.Shards), normShards(so.Shards); ps != rs {
		return fmt.Errorf("bench: resume: manifest shards %d, run shards %d", ps, rs)
	}
	return nil
}

// normShards maps every serial spelling (0, 1, negative) to 1 so
// manifests predating the field compare equal to explicit -shards 1.
func normShards(s int) int {
	if s < 1 {
		return 1
	}
	return s
}

// RunSweep executes the listed experiments and returns the sweep's
// manifest. With Resume set, experiments whose reports the previous
// manifest already holds are carried over (marked Resumed) and only the
// missing ones run — a sweep interrupted after N experiments restarts
// at experiment N+1, not at zero. Entries are ordered as ids, so equal
// inputs produce manifests identical up to the throughput fields.
func RunSweep(ids []string, so SweepOptions) (*Trajectory, error) {
	opt := so.Options.withDefaults()
	so.Options = opt
	topoHash := topoFingerprint()
	if so.Resume != nil {
		if err := canResume(so.Resume, so, topoHash); err != nil {
			return nil, err
		}
	}
	traj := &Trajectory{
		Schema:     TrajectorySchema,
		Tool:       "netcrafter-bench",
		GoVersion:  runtime.Version(),
		StartedAt:  time.Now().UTC().Format(time.RFC3339),
		Scale:      so.ScaleName,
		Workloads:  append([]string(nil), opt.Workloads...),
		Seed:       cluster.Baseline().Seed,
		TopoHash:   topoHash,
		Backend:    string(opt.Backend.Norm()),
		Parallel:   opt.parallelism(0),
		Shards:     normShards(opt.Shards),
		HostCPUs:   runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	for i, id := range sorted {
		if prev := so.Resume.Entry(id); prev != nil && prev.Report != nil {
			if so.OnExperiment != nil {
				so.OnExperiment(id, i, len(sorted), true)
			}
			e := *prev
			e.Resumed = true
			traj.Experiments = append(traj.Experiments, e)
			continue
		}
		if so.OnExperiment != nil {
			so.OnExperiment(id, i, len(sorted), false)
		}
		rep, st, err := RunMeasured(id, opt)
		if err != nil {
			return nil, err
		}
		traj.Experiments = append(traj.Experiments, TrajectoryEntry{
			ID:              id,
			Cells:           st.Cells,
			SimCycles:       st.SimCycles,
			WallSeconds:     st.Wall.Seconds(),
			CellsPerSec:     st.CellsPerSec(),
			SimCyclesPerSec: st.SimCyclesPerSec(),
			Report:          rep,
		})
	}
	traj.finalize()
	return traj, nil
}
