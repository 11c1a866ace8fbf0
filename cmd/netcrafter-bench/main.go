// Command netcrafter-bench regenerates the paper's tables and figures.
//
// Experiment cells — one (configuration, workload) simulation each —
// fan out across a worker pool (-parallel, default GOMAXPROCS); any
// setting produces byte-identical reports, only the wall-clock changes.
// Per-cell progress streams to stderr. Every sweep also writes a
// machine-readable manifest (BENCH_<scale>.json) with each report and
// the simulator's own throughput, timed with the engine self-profiler
// off, and -resume skips experiments the manifest already holds.
// Per-layer host time is the repository benchmark's traced pass
// (benchmark/), not a sweep manifest field.
//
// -shards additionally partitions every cell's own engine across N
// goroutines (cluster boundaries, lockstep epochs — DESIGN.md section
// 2.15). Reports are byte-identical to serial runs; the manifest
// records the shard count and -resume refuses to mix it, like
// -backend. Cell fan-out (-parallel) and engine sharding (-shards)
// compose, but on a saturated worker pool -parallel alone is usually
// the better use of the cores.
//
// Usage:
//
//	netcrafter-bench -exp fig14                          # one artifact
//	netcrafter-bench -exp all -scale small -parallel 8   # everything
//	netcrafter-bench -exp all -scale small -resume       # finish an interrupted sweep
//	netcrafter-bench -backend flow -exp ext-collective   # analytic fast path
//	netcrafter-bench -list
//
// -backend flow runs the sweep on the analytic flow backend
// (communication-plan experiments only; -exp all narrows to them) and
// writes BENCH_flow_<scale>.json so fast-path trajectories never
// clobber cycle-fidelity ones. The ext-calibrate experiment runs each
// comm cell on both backends and reports the flow backend's error.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"netcrafter"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (table1..3, fig3..fig22) or 'all'")
		scale    = flag.String("scale", "small", "tiny | small | medium")
		backendF = flag.String("backend", "cycle", "simulation backend: cycle | flow (flow runs only the comm-plan experiments; see -list)")
		wls      = flag.String("workloads", "", "comma-separated workload subset (default: all 15)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		format   = flag.String("format", "text", "text | json | csv | chart")
		parallel = flag.Int("parallel", 0, "worker goroutines fanning cells out (0 = GOMAXPROCS)")
		shards   = flag.Int("shards", 0, "partition every cell's engine across N goroutines (0/1 = serial; reports are byte-identical, cycle backend only)")
		resume   = flag.Bool("resume", false, "skip experiments already present in the manifest")
		manifest = flag.String("manifest", "auto", "sweep manifest path ('auto' = BENCH_<scale>.json, 'off' = none)")
		quiet    = flag.Bool("q", false, "suppress per-cell progress on stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (post-sweep) to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	backend, err := netcrafter.ParseBackend(*backendF)
	if err != nil {
		fail(err)
	}

	if *list {
		fmt.Println(strings.Join(netcrafter.ExperimentsFor(backend), "\n"))
		return
	}

	if *shards > 1 && backend.Norm() != netcrafter.BackendCycle {
		fail(fmt.Errorf("-shards %d partitions the cycle backend's engine; -backend %s cannot shard", *shards, backend.Norm()))
	}
	opt := netcrafter.ExperimentOptions{Parallel: *parallel, Backend: backend, Shards: *shards}
	switch *scale {
	case "tiny":
		opt.Scale = netcrafter.Tiny()
	case "small":
		opt.Scale = netcrafter.Small()
	case "medium":
		opt.Scale = netcrafter.Medium()
	default:
		fail(fmt.Errorf("unknown -scale %q", *scale))
	}
	if *wls != "" {
		opt.Workloads = strings.Split(*wls, ",")
	}
	if !*quiet {
		opt.Progress = printProgress
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = netcrafter.ExperimentsFor(backend)
	}

	path := manifestPath(*manifest, *exp, *scale, backend)
	so := netcrafter.SweepOptions{Options: opt, ScaleName: *scale}
	if *resume {
		if path == "" {
			fail(fmt.Errorf("-resume needs a manifest (is -manifest off?)"))
		}
		prev, err := readManifest(path)
		if err != nil {
			fail(err)
		}
		so.Resume = prev // nil when no manifest exists yet: a fresh run
	}
	if !*quiet {
		so.OnExperiment = func(id string, index, total int, resumed bool) {
			state := "running"
			if resumed {
				state = "resumed from manifest"
			}
			fmt.Fprintf(os.Stderr, "== [%d/%d] %s (%s)\n", index+1, total, id, state)
		}
	}

	traj, err := netcrafter.RunSweep(ids, so)
	if err != nil {
		fail(err)
	}
	traj.Git = gitDescribe()

	for _, e := range traj.Experiments {
		switch *format {
		case "json":
			if err := e.Report.WriteJSON(os.Stdout); err != nil {
				fail(err)
			}
		case "csv":
			if err := e.Report.WriteCSV(os.Stdout); err != nil {
				fail(err)
			}
		case "chart":
			if err := e.Report.WriteChart(os.Stdout); err != nil {
				fail(err)
			}
		default:
			fmt.Println(e.Report)
		}
	}

	if path != "" {
		if err := writeManifest(path, traj); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "netcrafter-bench: wrote %s (%d experiments, %d cells, %.1f cells/sec, %.2e sim cycles/sec)\n",
			path, len(traj.Experiments), traj.Cells, traj.CellsPerSec, traj.SimCyclesPerSec)
	}
}

// manifestPath resolves the -manifest flag: explicit path, "off", or
// the automatic name — BENCH_<scale>.json for full sweeps, a name
// carrying the experiment id for partial ones so a single-figure run
// never overwrites the full sweep's trajectory. Flow-backend sweeps
// get their own BENCH_flow_* names for the same reason: a fast flow
// run must never clobber the cycle-fidelity trajectory (resume would
// also refuse the mix, but naming keeps them apart in the tree).
func manifestPath(flagVal, exp, scale string, backend netcrafter.Backend) string {
	tag := ""
	if backend.Norm() == netcrafter.BackendFlow {
		tag = "flow_"
	}
	switch flagVal {
	case "off":
		return ""
	case "auto":
		if exp == "all" {
			return fmt.Sprintf("BENCH_%s%s.json", tag, scale)
		}
		return fmt.Sprintf("BENCH_%s%s_%s.json", tag, exp, scale)
	default:
		return flagVal
	}
}

// readManifest loads a manifest for -resume; a missing file is not an
// error (the sweep simply starts fresh).
func readManifest(path string) (*netcrafter.Trajectory, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := netcrafter.ReadTrajectory(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// writeManifest writes atomically (temp file + rename) so an
// interrupted run never truncates the trajectory it would resume from.
func writeManifest(path string, t *netcrafter.Trajectory) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err := t.Write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// printProgress streams one line per finished cell to stderr.
func printProgress(p netcrafter.ExperimentProgress) {
	if p.Err != nil {
		fmt.Fprintf(os.Stderr, "  [%s %d/%d] %s cfg%d FAILED: %v\n",
			p.Experiment, p.Cell, p.Cells, p.Workload, p.Config, p.Err)
		return
	}
	fmt.Fprintf(os.Stderr, "  [%s %d/%d] %s cfg%d %.1fMcyc %.2fs (%.1f Mcyc/s)\n",
		p.Experiment, p.Cell, p.Cells, p.Workload, p.Config,
		float64(p.SimCycles)/1e6, p.Wall.Seconds(), p.Throughput()/1e6)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "netcrafter-bench:", err)
	os.Exit(1)
}

// gitDescribe best-effort fingerprints the working tree for the
// manifest; empty when git is unavailable.
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
