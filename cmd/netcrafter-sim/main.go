// Command netcrafter-sim runs one workload on one system configuration
// and prints the measured statistics.
//
// Usage:
//
//	netcrafter-sim [-workload GUPS] [-config baseline|ideal|netcrafter|sector]
//	               [-scale tiny|small|medium] [-inter 16] [-intra 128]
//	               [-topo preset|spec.json] [-topo-list] [-topo-info] [-dot FILE]
//	               [-pool 32] [-flit 16] [-seed 1] [-v]
//	               [-spans FILE] [-metrics FILE]
//	               [-timeline FILE] [-heatmap] [-profile-components]
//	               [-inflight-dump] [-shards N]
//	               [-comm ring-allreduce] [-comm-bytes N] [-qps N]
//	               [-requests N] [-comm-export FILE] [-comm-replay FILE]
//	               [-backend cycle|flow]
//
// A negative numeric override is an error that names the flag; an
// unset one (0, or -1 for -pool) keeps the configuration's value.
//
// -shards partitions the simulation at cluster boundaries and runs each
// partition's engine on its own goroutine, in lockstep (DESIGN.md
// section 2.15). Results are bit-identical to the serial engine at any
// shard count; only wall-clock changes, so use it on multi-core hosts
// with multi-cluster topologies. Shard counts above the cluster count
// clamp down. Cycle backend only; the shared observability sinks
// (-spans, -metrics, -timeline, -heatmap) and the -comm modes refuse to
// combine with -shards.
//
// -backend selects the simulation fidelity. The default cycle backend
// ticks every flit through the real switches and controllers; the
// flow backend solves communication plans analytically as max-min
// fair fluid flows (DESIGN.md section 2.14) — orders of magnitude
// faster, but it models plans only, so it requires -comm or
// -comm-replay and rejects workloads and every observability flag
// (each one watches the ticked system). See the ext-calibrate bench
// experiment for its measured error.
//
// -comm runs a communication program instead of a workload: a
// collective (ring-allreduce, tree-allreduce, alltoall, pipeline,
// tensor) or an open-loop serving generator (serve-poisson,
// serve-burst) whose per-request p50/p99/p999 latency table is
// printed after the run. "-comm list" lists the programs. -comm-bytes,
// -qps and -requests override the scale preset's buffer size, offered
// load and request count. -comm-export writes the generated plan as a
// JSONL trace ({"t":cycle,"src":gpu,"dst":gpu,"bytes":n,...});
// -comm-replay executes such a trace instead of generating a plan —
// replaying an exported trace reproduces the generator's metrics
// exactly. Every observability flag below works the same way with
// -comm as with -workload.
//
// -topo replaces the default 4-GPU/2-cluster fabric with a named preset
// (see -topo-list) or a JSON topology spec file; link bandwidths then
// come from the graph, so -inter and -intra are rejected with it. -dot
// renders the selected topology as Graphviz dot to FILE ("-" = stdout)
// and exits.
// -topo-info prints the fabric's shape — device/switch/link/cluster
// counts, boundary links, bandwidth taper points — then builds the
// system and reports the spliced controller and guarded-link counts,
// and exits; on a correct build, controllers always equals
// taper-points (the scale-smoke CI check greps exactly that).
//
// -spans streams one JSON line per finished packet span to FILE and
// prints the per-stage latency breakdown table; -metrics writes a
// Prometheus-style snapshot of the metrics registry to FILE after the
// run.
//
// -timeline records the run's event timeline — per-component engine
// execute slices, cycle-windowed link utilization and queue occupancy,
// per-controller counts of ejections, stitches, trims, pooled and
// un-stitched flits, and per-transaction state dwells — and writes it
// as Chrome Trace Event JSON to FILE, viewable in Perfetto
// (ui.perfetto.dev) or chrome://tracing. -heatmap prints the per-link
// congestion heatmap (utilization per cycle window, hottest links
// ranked) after the run; both need a single -workload.
// -profile-components enables the engine self-profiler and prints where
// host time went per simulated component. -inflight-dump prints the
// live transaction tables after the run.
//
// -timeline, -spans, -metrics and -dot accept "-" for stdout. Output
// files are opened before the simulation starts, so an unwritable path
// fails immediately with a non-zero exit instead of after minutes of
// simulation.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"netcrafter"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams injected and its exit code returned, so
// the whole flag matrix is testable in-process.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("netcrafter-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl     = fs.String("workload", "GUPS", "workload name or 'all' (see -list)")
		cfgSel = fs.String("config", "netcrafter", "baseline | ideal | netcrafter | sector")
		backF  = fs.String("backend", "cycle", "simulation backend: cycle | flow (flow needs -comm; analytic, no per-flit fidelity)")
		scale  = fs.String("scale", "small", "tiny | small | medium")
		inter  = fs.Int("inter", 0, "override inter-cluster GB/s (not with -topo)")
		intra  = fs.Int("intra", 0, "override intra-cluster GB/s (not with -topo)")
		topoF  = fs.String("topo", "", "topology preset name or JSON spec file (see -topo-list)")
		topoL  = fs.Bool("topo-list", false, "list topology presets and exit")
		topoI  = fs.Bool("topo-info", false, "print the -topo fabric's shape (nodes, links, taper points, controllers) and exit")
		dotF   = fs.String("dot", "", "write the -topo graph as Graphviz dot to this file ('-' = stdout) and exit")
		pool   = fs.Int("pool", -1, "override Flit Pooling window (cycles)")
		flitSz = fs.Int("flit", 0, "override flit size in bytes (8 or 16)")
		seed   = fs.Uint64("seed", 1, "workload seed")
		list   = fs.Bool("list", false, "list workloads and exit")
		verb   = fs.Bool("v", false, "verbose per-type traffic breakdown")
		spansF = fs.String("spans", "", "write packet lifecycle spans (JSONL) to this file ('-' = stdout) and print the latency breakdown")
		metF   = fs.String("metrics", "", "write a Prometheus-style metrics snapshot to this file ('-' = stdout)")
		tlF    = fs.String("timeline", "", "write a Chrome Trace Event JSON timeline to this file ('-' = stdout; open in Perfetto or chrome://tracing)")
		heat   = fs.Bool("heatmap", false, "print the per-link congestion heatmap after the run")
		prof   = fs.Bool("profile-components", false, "enable the engine self-profiler and print the per-component host-time table")
		inFlt  = fs.Bool("inflight-dump", false, "dump the live transaction tables after each run; on a run-limit error, also print the stuck-transaction watchdog report")
		commF  = fs.String("comm", "", "run a communication program instead of a workload ('list' = list programs)")
		commB  = fs.Int("comm-bytes", 0, "override the comm buffer size in bytes")
		qps    = fs.Float64("qps", 0, "override the serving programs' offered load (queries/sec)")
		reqs   = fs.Int("requests", 0, "override the serving programs' request count")
		commX  = fs.String("comm-export", "", "write the generated comm plan as a JSONL trace to this file ('-' = stdout)")
		commR  = fs.String("comm-replay", "", "execute a JSONL comm trace instead of generating a plan")
		shards = fs.Int("shards", 0, "partition the simulation across N engine goroutines (0/1 = serial; bit-identical results, cycle backend only)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "netcrafter-sim:", err)
		return 1
	}
	// A negative override is an error, not "unset": only -pool has an
	// unset value below zero (-1, its default).
	if *pool < -1 {
		return fail(fmt.Errorf("-pool %d: must not be negative (-1, the default, keeps the config's window)", *pool))
	}
	for _, o := range []struct {
		flag string
		v    float64
	}{
		{"flit", float64(*flitSz)}, {"inter", float64(*inter)}, {"intra", float64(*intra)},
		{"comm-bytes", float64(*commB)}, {"qps", *qps}, {"requests", float64(*reqs)},
		{"shards", float64(*shards)},
	} {
		if o.v < 0 {
			return fail(fmt.Errorf("-%s %v: must not be negative", o.flag, o.v))
		}
	}
	// A topology carries its own link bandwidths; an override would be
	// silently ignored.
	for _, flag := range []string{"inter", "intra"} {
		if v := fs.Lookup(flag).Value.String(); *topoF != "" && v != "0" {
			return fail(fmt.Errorf("-%s %s: -topo takes link bandwidths from the topology", flag, v))
		}
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(netcrafter.Workloads(), "\n"))
		return 0
	}
	if *topoL {
		fmt.Fprintln(stdout, strings.Join(netcrafter.TopologyPresets(), "\n"))
		return 0
	}

	backend, err := netcrafter.ParseBackend(*backF)
	if err != nil {
		return fail(err)
	}

	cfg, err := pickConfig(*cfgSel)
	if err != nil {
		return fail(err)
	}
	cfg.Backend = backend
	if *topoF != "" {
		g, err := netcrafter.LoadTopology(*topoF)
		if err != nil {
			return fail(err)
		}
		cfg = cfg.WithTopology(g)
	}
	if *topoI {
		if cfg.Topo == nil {
			return fail(fmt.Errorf("-topo-info needs -topo"))
		}
		return runTopoInfo(cfg, stdout, stderr)
	}
	if *dotF != "" {
		if cfg.Topo == nil {
			return fail(fmt.Errorf("-dot needs -topo"))
		}
		w, closeW, err := openOut(*dotF, stdout)
		if err != nil {
			return fail(err)
		}
		if _, err := io.WriteString(w, cfg.Topo.DOT()); err != nil {
			return fail(err)
		}
		if err := closeW(); err != nil {
			return fail(err)
		}
		return 0
	}
	if *inter > 0 {
		cfg.InterGBps = *inter
	}
	if *intra > 0 {
		cfg.IntraGBps = *intra
	}
	if *pool >= 0 {
		cfg.NetCrafter.PoolingCycles = netcrafter.Cycle(*pool)
	}
	if *flitSz > 0 {
		cfg.GPU.FlitBytes = *flitSz
	}
	cfg.Seed = *seed
	if *prof {
		cfg.Profile = true
	}
	if *shards > 1 {
		// Fail the flag combinations here, before any simulation state is
		// built, with messages that name the conflicting flag.
		if *commF != "" || *commR != "" {
			return fail(fmt.Errorf("-shards needs the serial engine: -comm/-comm-replay register global injectors and a shared tracker"))
		}
		if *spansF != "" || *metF != "" || *tlF != "" || *heat {
			return fail(fmt.Errorf("-shards needs the serial engine: -spans/-metrics/-timeline/-heatmap attach observability sinks shared across shards"))
		}
		cfg.Shards = *shards
	}

	sc, err := pickScale(*scale)
	if err != nil {
		return fail(err)
	}
	sc.Seed = *seed

	if *commF == "list" {
		fmt.Fprintln(stdout, strings.Join(netcrafter.CommPrograms(), "\n"))
		return 0
	}
	sf := sinkFlags{spans: *spansF, metrics: *metF, timeline: *tlF,
		heatmap: *heat, profile: *prof, inflight: *inFlt}
	if *commF != "" || *commR != "" {
		return runCommMode(cfg, commFlags{
			prog: *commF, scale: *scale, bytes: *commB, qps: *qps,
			requests: *reqs, seed: *seed, export: *commX, replay: *commR,
		}, sf, stdout, stderr)
	}

	if backend.Norm() != netcrafter.BackendCycle {
		return fail(fmt.Errorf("-backend %s runs communication programs only (use -comm); workloads need the cycle backend", backend))
	}

	names := []string{*wl}
	if *wl == "all" {
		names = netcrafter.Workloads()
	}
	// The timeline's tracks belong to one system instance, so timeline
	// exports only make sense for a single-workload run.
	if (*tlF != "" || *heat) && len(names) != 1 {
		return fail(fmt.Errorf("-timeline and -heatmap need a single -workload, not %d", len(names)))
	}

	sk, err := openSinks(sf, stdout)
	if err != nil {
		return fail(err)
	}
	for _, name := range names {
		sys, err := netcrafter.BuildSystem(cfg)
		if err != nil {
			return fail(err)
		}
		sk.attach(sys)
		res, err := netcrafter.RunOnSystem(sys, name, sc, 500_000_000)
		sk.afterRun(sys, name, err, stdout, stderr)
		if err != nil {
			return fail(err)
		}
		printResult(stdout, res, *verb)
		if err := sk.writeProfile(stdout, sys); err != nil {
			return fail(err)
		}
	}
	if err := sk.finish(stdout); err != nil {
		return fail(err)
	}
	return 0
}

// runTopoInfo is the -topo-info path: report the fabric's static shape
// off the graph, then build the system and report what the build
// actually spliced in. The two views agree by construction —
// controllers == taper-points on every valid fabric — which is what
// the scale-smoke CI target checks.
func runTopoInfo(cfg netcrafter.Config, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "netcrafter-sim:", err)
		return 1
	}
	g := cfg.Topo
	taper, err := netcrafter.TopologyTaperPoints(g)
	if err != nil {
		return fail(err)
	}
	boundary := 0
	for _, l := range g.Links {
		if g.Boundary(l) {
			boundary++
		}
	}
	// The splice structure is backend- and shard-independent; build the
	// plain serial system to count it.
	cfg.Backend = netcrafter.BackendCycle
	cfg.Shards = 0
	sys, err := netcrafter.BuildSystem(cfg)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "devices: %d\n", len(g.Devices))
	fmt.Fprintf(stdout, "switches: %d\n", len(g.Switches))
	fmt.Fprintf(stdout, "links: %d\n", len(g.Links))
	fmt.Fprintf(stdout, "clusters: %d\n", g.NumClusters())
	fmt.Fprintf(stdout, "boundary-links: %d\n", boundary)
	fmt.Fprintf(stdout, "taper-points: %d\n", taper)
	fmt.Fprintf(stdout, "controllers: %d\n", len(sys.Controllers))
	fmt.Fprintf(stdout, "inter-links: %d\n", len(sys.InterLinks))
	fmt.Fprintf(stdout, "taper-links: %d\n", len(sys.TaperLinks))
	return 0
}

// noClose is the close function of a stream the CLI does not own
// (stdout).
func noClose() error { return nil }

// openOut opens path for writing; "-" means the given stdout, which is
// never closed.
func openOut(path string, stdout io.Writer) (io.Writer, func() error, error) {
	if path == "-" {
		return stdout, noClose, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// sinkFlags holds the observability flag values. The workload and comm
// modes both honour every one of them through openSinks, so each flag
// means the same thing in both.
type sinkFlags struct {
	spans, metrics, timeline   string
	heatmap, profile, inflight bool
}

// any reports whether any sink flag is set. Every sink observes the
// ticked system, so the flow backend refuses them all.
func (f sinkFlags) any() bool {
	return f.spans != "" || f.metrics != "" || f.timeline != "" || f.heatmap || f.profile || f.inflight
}

// sinks are the opened observability outputs of one CLI run.
type sinks struct {
	f                             sinkFlags
	reg                           *netcrafter.MetricsRegistry
	spans                         *netcrafter.SpanRecorder
	tl                            *netcrafter.Timeline
	metOut, tlOut                 io.Writer
	closeSpans, closeMet, closeTl func() error
}

// openSinks opens every output the flags name before anything is
// simulated: an unwritable path must fail now, not after the run.
func openSinks(f sinkFlags, stdout io.Writer) (*sinks, error) {
	s := &sinks{f: f, closeSpans: noClose, closeMet: noClose, closeTl: noClose}
	var err error
	if f.metrics != "" {
		if s.metOut, s.closeMet, err = openOut(f.metrics, stdout); err != nil {
			return nil, err
		}
		s.reg = netcrafter.NewMetricsRegistry()
	}
	if f.spans != "" {
		var w io.Writer
		if w, s.closeSpans, err = openOut(f.spans, stdout); err != nil {
			return nil, err
		}
		s.spans = netcrafter.NewSpanRecorder(w)
	}
	if f.timeline != "" {
		if s.tlOut, s.closeTl, err = openOut(f.timeline, stdout); err != nil {
			return nil, err
		}
	}
	if f.timeline != "" || f.heatmap {
		s.tl = netcrafter.NewTimeline(0)
	}
	return s, nil
}

// attach wires the sinks into sys before it runs; unset sinks attach
// as nil, which costs the run nothing. The profiler needs no
// attachment: Config.Profile enables it.
func (s *sinks) attach(sys *netcrafter.System) { sys.AttachObs(s.reg, s.spans, s.tl) }

// afterRun closes the timeline's open windows at sys's clock and, under
// -inflight-dump, dumps the live transaction tables, preceded on a
// failed run by the watchdog's stuck-transaction report.
func (s *sinks) afterRun(sys *netcrafter.System, name string, runErr error, stdout, stderr io.Writer) {
	s.tl.Finish(sys.Engine.Now())
	if !s.f.inflight {
		return
	}
	if runErr != nil {
		// A wedged run: the watchdog names the transactions that
		// stopped moving, with their stage history.
		fmt.Fprintf(stderr, "%s: %v; stuck-transaction report:\n", name, runErr)
		if sys.CheckStuck(stderr, 10_000) == 0 {
			fmt.Fprintln(stderr, "  (no transaction older than 10000 cycles)")
		}
	}
	sys.DumpInFlight(stdout)
}

// writeProfile prints sys's per-component host-time table, merged
// over its shards, under -profile-components.
func (s *sinks) writeProfile(w io.Writer, sys *netcrafter.System) error {
	if !s.f.profile {
		return nil
	}
	fmt.Fprintln(w)
	return netcrafter.WriteComponentProfile(w, sys.Profile())
}

// finish flushes and closes every sink after the last run: the span
// breakdown table, the metrics snapshot, the timeline export and the
// heatmap, each followed by where it went when that was a file.
func (s *sinks) finish(stdout io.Writer) error {
	if s.spans != nil {
		if err := s.spans.Flush(); err != nil {
			return err
		}
		if err := s.closeSpans(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nspans: %d recorded (%s)\n%s", s.spans.Spans(), s.f.spans, s.spans.Breakdown().Table())
	}
	if s.reg != nil {
		if err := s.reg.WriteProm(s.metOut); err != nil {
			return err
		}
		if err := s.closeMet(); err != nil {
			return err
		}
		if s.f.metrics != "-" {
			fmt.Fprintf(stdout, "metrics: snapshot written to %s\n", s.f.metrics)
		}
	}
	if s.f.timeline != "" {
		if err := s.tl.WriteTrace(s.tlOut); err != nil {
			return err
		}
		if err := s.closeTl(); err != nil {
			return err
		}
		if s.f.timeline != "-" {
			fmt.Fprintf(stdout, "timeline: %d events written to %s (open in Perfetto / chrome://tracing)\n",
				s.tl.Events(), s.f.timeline)
		}
	}
	if s.f.heatmap {
		fmt.Fprintln(stdout)
		return s.tl.WriteHeatmap(stdout, 0)
	}
	return nil
}

// commFlags bundles the -comm* flag values for runCommMode.
type commFlags struct {
	prog, scale     string
	bytes, requests int
	qps             float64
	seed            uint64
	export, replay  string
}

// pickCommScale maps the -scale preset onto a communication scale
// (medium is the small preset with a 4x buffer and twice the
// requests).
func pickCommScale(sel string) (netcrafter.CommScale, error) {
	switch sel {
	case "tiny":
		return netcrafter.CommTiny(), nil
	case "small":
		return netcrafter.CommSmall(), nil
	case "medium":
		sc := netcrafter.CommSmall()
		sc.Bytes *= 4
		sc.Requests *= 2
		return sc, nil
	}
	return netcrafter.CommScale{}, fmt.Errorf("unknown -scale %q", sel)
}

// runCommMode is the -comm / -comm-replay path: generate or parse a
// communication plan, optionally export it, run it through the
// selected backend — the real ticked fabric, or the analytic flow
// solver — and print the makespan line plus, for serving programs,
// the per-request latency table.
func runCommMode(cfg netcrafter.Config, cf commFlags, sf sinkFlags, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "netcrafter-sim:", err)
		return 1
	}
	flowBackend := cfg.Backend.Norm() == netcrafter.BackendFlow
	if flowBackend && sf.any() {
		return fail(fmt.Errorf("-spans, -metrics, -timeline, -heatmap, -profile-components and -inflight-dump instrument the ticked system; they need -backend cycle"))
	}

	// The flow backend never builds a system — it only needs the GPU
	// count off the resolved topology to size generated plans.
	var err error
	var sys *netcrafter.System
	var nGPUs int
	if flowBackend {
		g, gerr := cfg.Graph()
		if gerr != nil {
			return fail(gerr)
		}
		nGPUs = len(g.Devices)
	} else {
		sys, err = netcrafter.BuildSystem(cfg)
		if err != nil {
			return fail(err)
		}
		nGPUs = len(sys.GPUs)
	}

	var plan *netcrafter.CommPlan
	if cf.replay != "" {
		f, err := os.Open(cf.replay)
		if err != nil {
			return fail(err)
		}
		plan, err = netcrafter.ParseCommTrace(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
	} else {
		sc, err := pickCommScale(cf.scale)
		if err != nil {
			return fail(err)
		}
		sc.GPUs = nGPUs
		sc.Seed = cf.seed
		if cf.bytes > 0 {
			sc.Bytes = cf.bytes
		}
		if cf.qps > 0 {
			sc.QPS = cf.qps
		}
		if cf.requests > 0 {
			sc.Requests = cf.requests
		}
		plan, err = netcrafter.CommProgram(cf.prog, sc)
		if err != nil {
			return fail(err)
		}
	}

	if cf.export != "" {
		w, closeW, err := openOut(cf.export, stdout)
		if err != nil {
			return fail(err)
		}
		if err := netcrafter.WriteCommTrace(w, plan); err != nil {
			return fail(err)
		}
		if err := closeW(); err != nil {
			return fail(err)
		}
		if cf.export != "-" {
			fmt.Fprintf(stdout, "comm: %d sends exported to %s\n", len(plan.Sends), cf.export)
		}
	}

	sk, err := openSinks(sf, stdout)
	if err != nil {
		return fail(err)
	}
	var res *netcrafter.CommResult
	if flowBackend {
		res, err = netcrafter.RunCommPlanWith(cfg, plan, netcrafter.CommOptions{}, 500_000_000)
	} else {
		sk.attach(sys)
		res, err = netcrafter.RunCommPlan(sys, plan, netcrafter.CommOptions{}, 500_000_000)
		sk.afterRun(sys, plan.Name, err, stdout, stderr)
	}
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, res.String())
	if tbl := res.LatencyTable(); tbl != "" {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, tbl)
	}
	if !flowBackend {
		if err := sk.writeProfile(stdout, sys); err != nil {
			return fail(err)
		}
	}
	if err := sk.finish(stdout); err != nil {
		return fail(err)
	}
	return 0
}

func pickConfig(sel string) (netcrafter.Config, error) {
	switch sel {
	case "baseline":
		return netcrafter.Baseline(), nil
	case "ideal":
		return netcrafter.Ideal(), nil
	case "netcrafter":
		return netcrafter.WithNetCrafter(), nil
	case "sector":
		c := netcrafter.Baseline()
		c.GPU.FetchMode = netcrafter.FetchSector
		return c, nil
	}
	return netcrafter.Config{}, fmt.Errorf("unknown -config %q", sel)
}

func pickScale(sel string) (netcrafter.Scale, error) {
	switch sel {
	case "tiny":
		return netcrafter.Tiny(), nil
	case "small":
		return netcrafter.Small(), nil
	case "medium":
		return netcrafter.Medium(), nil
	}
	return netcrafter.Scale{}, fmt.Errorf("unknown -scale %q", sel)
}

func printResult(w io.Writer, r *netcrafter.Result, verbose bool) {
	fmt.Fprintf(w, "%-8s cycles=%-10d instr=%-8d L1acc=%-9d L1MPKI=%-7.2f\n",
		r.Workload, r.Cycles, r.Instructions, r.L1Accesses, r.L1MPKI())
	fmt.Fprintf(w, "         inter-link util=%.2f  inter-lat=%.0fcy intra-lat=%.0fcy  remote r/w=%d/%d\n",
		r.InterUtilization, r.InterReadLatency, r.IntraReadLatency, r.RemoteReads, r.RemoteWrites)
	fmt.Fprintf(w, "         flits=%d wireB=%d stitched=%.1f%% trimmedFlits=%d pooled=%d ptwShare=%.1f%%\n",
		r.Net.FlitsTotal.Value(), r.Net.WireBytes.Value(), 100*r.Net.StitchRate(),
		r.Net.FlitsTrimmed.Value(), r.Net.PooledFlits.Value(), 100*r.Net.PTWShare())
	if verbose {
		fmt.Fprintf(w, "         by-type: %s\n", r.Net.FlitsByType)
		fmt.Fprintf(w, "         occupancy: %s\n", r.Net.Occupancy)
		fmt.Fprintf(w, "         bytes-needed: %s\n", r.BytesNeeded)
	}
}
