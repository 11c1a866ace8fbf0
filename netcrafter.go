// Package netcrafter is the public API of the NetCrafter reproduction:
// a cycle-level simulator of a non-uniform bandwidth multi-GPU node
// (ISCA'25, Fatima et al.) together with the paper's contribution — the
// NetCrafter controller that reduces and manages the traffic crossing
// the lower-bandwidth inter-GPU-cluster network by Stitching, Trimming
// and Sequencing flits.
//
// Quick start:
//
//	result, err := netcrafter.Run(netcrafter.WithNetCrafter(), "GUPS", netcrafter.Small())
//	baseline, _ := netcrafter.Run(netcrafter.Baseline(), "GUPS", netcrafter.Small())
//	fmt.Printf("speedup: %.2fx\n", result.Speedup(baseline))
//
// Every table and figure of the paper's evaluation can be regenerated
// through Experiment / RunExperiment; see EXPERIMENTS.md for the
// recorded paper-vs-measured comparison.
package netcrafter

import (
	"io"

	"netcrafter/internal/bench"
	"netcrafter/internal/cluster"
	"netcrafter/internal/comm"
	"netcrafter/internal/core"
	"netcrafter/internal/flit"
	"netcrafter/internal/gpu"
	"netcrafter/internal/obs"
	"netcrafter/internal/obs/timeline"
	"netcrafter/internal/sim"
	"netcrafter/internal/topo"
	"netcrafter/internal/workload"
)

// Config describes a full system instance: GPU count and clustering,
// link bandwidths, switch parameters, GPU microarchitecture, and the
// NetCrafter controller configuration.
type Config = cluster.Config

// ControllerConfig holds the NetCrafter mechanism knobs (stitching,
// trimming, sequencing, flit pooling).
type ControllerConfig = core.Config

// SequencingMode selects the controller's priority policy.
type SequencingMode = core.SequencingMode

// Sequencing modes.
const (
	SeqOff       = core.SeqOff
	SeqPTW       = core.SeqPTW
	SeqDataEqual = core.SeqDataEqual
)

// StitchScope selects the stitch engine's candidate search breadth.
type StitchScope = core.StitchScope

// Stitch scopes.
const (
	ScopeAllPartitions = core.ScopeAllPartitions
	ScopeSamePartition = core.ScopeSamePartition
)

// FetchMode selects the L1 miss fetch granularity (full line vs the
// sector-cache comparison baseline).
type FetchMode = gpu.FetchMode

// Fetch modes.
const (
	FetchFullLine = gpu.FetchFullLine
	FetchSector   = gpu.FetchSector
)

// Backend selects the simulation fidelity a Config runs at: the
// cycle-level engine (every flit and mechanism ticked; the default)
// or the analytic flow-level fast path (communication plans solved as
// max-min fair fluid flows, orders of magnitude faster — see
// DESIGN.md section 2.14 and the ext-calibrate experiment for its
// measured error). Workload runs require BackendCycle.
type Backend = cluster.Backend

// Backends.
const (
	BackendCycle = cluster.BackendCycle
	BackendFlow  = cluster.BackendFlow
)

// ParseBackend resolves a backend name ("" means cycle).
func ParseBackend(s string) (Backend, error) { return cluster.ParseBackend(s) }

// Result is everything a workload run measured: cycles, cache and
// network statistics, latencies, and the derived metrics the paper
// reports (speedup, MPKI, utilization).
type Result = cluster.Result

// Scale sizes a workload instance.
type Scale = workload.Scale

// Cycle is a point in simulated time (1 GHz cycles).
type Cycle = sim.Cycle

// System is a built multi-GPU node; construct with BuildSystem for
// fine-grained control (attaching observability, running several
// workloads on one instance), or use Run for the common case.
type System = cluster.System

// Baseline returns the paper's Table-2 non-uniform system with the
// NetCrafter controller disabled (a passthrough FIFO).
func Baseline() Config { return cluster.Baseline() }

// Ideal returns the all-high-bandwidth configuration of Fig 3.
func Ideal() Config { return cluster.Ideal() }

// WithNetCrafter returns the baseline system with the paper's final
// NetCrafter design: Stitching + 32-cycle Selective Flit Pooling,
// Trimming, and PTW Sequencing.
func WithNetCrafter() Config { return cluster.WithNetCrafter() }

// ControllerBaseline returns the paper's final controller design (used
// to enable NetCrafter on a custom system Config).
func ControllerBaseline() ControllerConfig { return core.Baseline() }

// ControllerOff returns a passthrough controller configuration.
func ControllerOff() ControllerConfig { return core.Passthrough() }

// Tiny, Small and Medium are the workload scale presets (unit tests,
// benchmarks, full figure regeneration).
func Tiny() Scale   { return workload.Tiny() }
func Small() Scale  { return workload.Small() }
func Medium() Scale { return workload.Medium() }

// Workloads lists the fifteen Table-3 applications.
func Workloads() []string { return workload.Names() }

// BuildSystem validates cfg (and its Topology, when set) and builds the
// system for repeated or incremental use, returning invalid
// configurations as errors.
func BuildSystem(cfg Config) (*System, error) { return cluster.Build(cfg) }

// Topology is a declarative fabric graph: GPU devices, switches and
// bandwidth-annotated links. Build the paper's node with
// FrontierTopology, or load a preset (ring, fully connected, fat-tree,
// dragonfly; see TopologyPresets) or a JSON spec file with
// LoadTopology, and instantiate it with Config.WithTopology — a
// NetCrafter controller is spliced into every bandwidth taper point.
type Topology = topo.Graph

// LoadTopology resolves a preset name (see TopologyPresets) or a JSON
// spec file path into a validated topology.
func LoadTopology(nameOrPath string) (*Topology, error) { return topo.Load(nameOrPath) }

// TopologyPresets lists the named built-in topologies, sorted.
func TopologyPresets() []string { return topo.Presets() }

// FrontierTopology is the paper's Figure-2 node generalized to nGPUs
// split evenly over nClusters; bandwidths are flits/cycle (8 = 128 GB/s
// at 16-byte flits, 1 = 16 GB/s). FrontierTopology(4, 2, 8, 1, 1) is
// the seed system.
func FrontierTopology(nGPUs, nClusters, intraBW, interBW int, latency Cycle) *Topology {
	return topo.FrontierNode(nGPUs, nClusters, intraBW, interBW, latency)
}

// TopologyTaperPoints counts a fabric's bandwidth taper points — the
// link endpoints where a NetCrafter controller is spliced in when the
// topology is instantiated (System.Controllers has exactly this many
// entries). On single-level fabrics this is the clustered endpoints of
// the boundary links; on multi-level fabrics (fat-trees) it also
// counts within-pod egresses whose rate drops below the switch's
// fastest port.
func TopologyTaperPoints(g *Topology) (int, error) {
	p, err := g.ControllerPlacement()
	if err != nil {
		return 0, err
	}
	return p.N, nil
}

// Run builds a fresh system with cfg and executes the named workload
// at the given scale. A generous default cycle limit is applied.
func Run(cfg Config, name string, sc Scale) (*Result, error) {
	return cluster.RunOne(cfg, name, sc, 500_000_000)
}

// RunWithLimit is Run with an explicit cycle budget.
func RunWithLimit(cfg Config, name string, sc Scale, limit Cycle) (*Result, error) {
	return cluster.RunOne(cfg, name, sc, limit)
}

// RunOnSystem executes one workload on an already-built system — use
// when attaching observability sinks or running several workloads on
// one instance.
func RunOnSystem(sys *System, name string, sc Scale, limit Cycle) (*Result, error) {
	spec, err := workload.ByName(name, sc)
	if err != nil {
		return nil, err
	}
	return sys.RunWorkload(spec, limit)
}

// CommPlan is a timed communication program: per-GPU send sequences
// generated by a collective or serving builder (CommProgram), or
// parsed from a JSONL trace (ParseCommTrace). Run one with
// RunCommPlan or RunCommPlanWith.
type CommPlan = comm.Plan

// CommScale parameterizes communication-program generation: message
// and chunk sizes, participant count, microbatches and groups, and
// the open-loop arrival process (QPS, burst, request shape).
type CommScale = comm.Scale

// CommOptions wires plan execution into a system: the plan's start
// cycle and an optional timeline dwell sink. Injection rate and
// posted-write window are fixed (DESIGN.md §2.13); request latencies
// are in the result, and reach an attached registry after the run.
type CommOptions = comm.Options

// CommResult is what a communication run measured: makespan, bytes
// and line writes, bus bandwidth, and — for serving programs — exact
// per-request latency percentiles (P50/P99/P999).
type CommResult = comm.Result

// CommTiny and CommSmall are the communication scale presets.
func CommTiny() CommScale  { return comm.Tiny() }
func CommSmall() CommScale { return comm.Small() }

// CommPrograms lists the registered communication program generators
// (collectives and open-loop serving workloads), sorted.
func CommPrograms() []string { return comm.Names() }

// CommProgram generates the named communication program at the given
// scale.
func CommProgram(name string, sc CommScale) (*CommPlan, error) { return comm.ByName(name, sc) }

// RunCommPlan executes an explicit plan (generated or trace-parsed) on
// an already-built system; repeated calls run back to back on the
// system's clock.
func RunCommPlan(sys *System, p *CommPlan, opt CommOptions, limit Cycle) (*CommResult, error) {
	return sys.RunComm(p, opt, limit)
}

// RunCommPlanWith executes an explicit plan under cfg's Backend
// without requiring a built system: the cycle backend builds one
// internally, the flow backend solves the plan analytically on the
// resolved topology. This is the entry point for -backend flow runs.
func RunCommPlanWith(cfg Config, p *CommPlan, opt CommOptions, limit Cycle) (*CommResult, error) {
	return cluster.RunCommPlan(cfg, p, opt, limit)
}

// WriteCommTrace exports a plan in the JSONL trace format
// ({"t":cycle,"src":gpu,"dst":gpu,"bytes":n,...}, one send per line).
func WriteCommTrace(w io.Writer, p *CommPlan) error { return comm.WritePlan(w, p) }

// ParseCommTrace reads a JSONL trace into an executable plan; a plan
// exported with WriteCommTrace replays to identical metrics.
func ParseCommTrace(r io.Reader) (*CommPlan, error) { return comm.ParsePlan(r) }

// MetricsRegistry holds named pull gauges, latency histograms and
// cycle-windowed time series; attach one with System.AttachObs and
// export it with WriteProm.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// SpanRecorder collects per-packet lifecycle spans: every packet's
// end-to-end latency attributed to the pipeline stages it crossed.
// Attach one with System.AttachObs; w may be nil to aggregate without
// streaming JSONL.
type SpanRecorder = obs.SpanRecorder

// NewSpanRecorder creates a span recorder (w may be nil).
func NewSpanRecorder(w io.Writer) *SpanRecorder { return obs.NewSpanRecorder(w) }

// LatencyBreakdown is the per-type, per-stage aggregation of finished
// spans; obtain one from SpanRecorder.Breakdown.
type LatencyBreakdown = obs.Breakdown

// Timeline is the ring-buffered event timeline: per-component engine
// execute slices, cycle-windowed link utilization, queue occupancy and
// controller event-count (eject/stitch/trim/pool/unstitch) tracks, and
// per-transaction state dwells. Attach one with
// System.AttachObs, call Finish after the run, then export with
// WriteTrace (Chrome Trace Event JSON, viewable in Perfetto /
// chrome://tracing) and WriteHeatmap (terminal congestion heatmap).
type Timeline = timeline.Timeline

// NewTimeline creates a timeline; capacity <= 0 selects the default
// ring size.
func NewTimeline(capacity int) *Timeline { return timeline.New(capacity) }

// ComponentCost is one component's engine self-profile row (ticks,
// busy ticks, host time); see System.Profile and Config.Profile.
type ComponentCost = sim.ComponentCost

// WriteComponentProfile renders a self-profile (System.Profile of a
// Config.Profile system) as an aligned host-time table.
func WriteComponentProfile(w io.Writer, costs []ComponentCost) error {
	return timeline.WriteProfile(w, costs)
}

// Report is a regenerated table or figure.
type Report = bench.Report

// ExperimentOptions controls experiment regeneration, including the
// worker-pool fan-out (Parallel) and per-cell progress streaming
// (Progress). Reports are byte-identical at any Parallel setting.
type ExperimentOptions = bench.Options

// ExperimentProgress is one finished experiment cell, streamed to
// ExperimentOptions.Progress as the pool completes cells.
type ExperimentProgress = bench.Progress

// Experiments lists the regenerable paper artifacts (table1..3,
// fig3..fig22).
func Experiments() []string { return bench.IDs() }

// ExperimentsFor lists the artifacts backend b can regenerate: all of
// them for the cycle backend; only the communication-plan experiments
// (fidelity "any") for the flow backend.
func ExperimentsFor(b Backend) []string { return bench.IDsFor(b) }

// RunExperiment regenerates one paper artifact.
func RunExperiment(id string, opt ExperimentOptions) (*Report, error) {
	return bench.Run(id, opt)
}

// Trajectory is the machine-readable manifest of one benchmark sweep:
// what ran (experiments, workloads, scale, seed, fabric fingerprint),
// every regenerated report, and the simulator's own throughput
// (cells/sec, simulated cycles per host second). Sweeps write one as
// BENCH_<scale>.json so the perf trajectory accumulates across
// revisions.
type Trajectory = bench.Trajectory

// SweepOptions configures RunSweep (experiment options plus the scale
// tag, an optional manifest to resume from, and a per-experiment
// callback).
type SweepOptions = bench.SweepOptions

// RunSweep executes a list of experiments through the parallel harness
// and returns the sweep manifest; see bench.RunSweep for resume
// semantics.
func RunSweep(ids []string, so SweepOptions) (*Trajectory, error) { return bench.RunSweep(ids, so) }

// ReadTrajectory parses a sweep manifest written by Trajectory.Write.
func ReadTrajectory(r io.Reader) (*Trajectory, error) { return bench.ReadTrajectory(r) }

// Table1Row is one row of the paper's Table 1.
type Table1Row = flit.Table1Row

// Table1 returns the flit categorization for a flit size (16 = paper).
func Table1(flitBytes int) []Table1Row { return flit.Table1(flitBytes) }
