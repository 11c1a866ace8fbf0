package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"netcrafter/internal/cluster"
	"netcrafter/internal/comm"
	"netcrafter/internal/dram"
	"netcrafter/internal/flow"
	"netcrafter/internal/sim"
	"netcrafter/internal/topo"
	"netcrafter/internal/workload"
)

// cycleLimit is the budget netcrafter.Run applies; drainLimit bounds
// how long posted writes may take to complete after a run.
const (
	cycleLimit = 500_000_000
	drainLimit = 1_000_000
)

// layers are the engine-side layers a traced run charges host time to,
// one per module that registers tickers with the engine.
var layers = []string{"sim.sched", "network.switch", "network.link", "core", "gpu.rdma", "dram", "comm.inject"}

// layerCost is one layer's share of a traced engine run.
type layerCost struct {
	ticks int64
	host  time.Duration
}

// sample is one execution of a cell, timed at every layer boundary.
type sample struct {
	// Host time of each layer call: topology load (topo.Preset and
	// Config.Graph), input generation (workload.ByName or comm.ByName),
	// fabric build (cluster.Build or flow.NewNetwork) and the run
	// (System.RunWorkload, System.RunComm or Network.Run).
	topo, gen, build, run time.Duration
	// loop is the part of run spent inside the engine's run loop or the
	// flow solver, as that layer times itself.
	loop time.Duration
	// Heap bytes allocated by the whole cell, the build and the run.
	alloc, buildAlloc, runAlloc uint64
	// buildHeap is the live heap the built fabric added; peakHeap the
	// largest live heap seen while the fabric was held. Both are read
	// after a forced GC, outside the timed calls.
	buildHeap, peakHeap uint64
	// cycles is simulated time; simCycles and rounds are the engine's
	// clock and processed rounds (cycle backend only).
	cycles, simCycles, rounds int64
	// sends is the number of flows a flow-backend run solved.
	sends int
	// layers is the traced run's engine profile grouped by layer.
	layers map[string]layerCost
	// out is the cell's simulated outputs, exact for a given seed.
	out map[string]float64
	// elapsed is the host time the whole execution took, forced GCs
	// included; it only paces the run loop.
	elapsed time.Duration
	err     error
}

func (s *sample) setup() time.Duration { return s.topo + s.gen + s.build }
func (s *sample) wall() time.Duration  { return s.setup() + s.run }

// heapNow forces a collection and returns the live heap and the
// cumulative bytes allocated so far.
func heapNow() (live, total uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.TotalAlloc
}

func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runCell executes one cell through the same public calls, in the same
// order, as netcrafter.Run and netcrafter.RunCommPlanWith, reading the
// clock at each call boundary. Every cell builds a fresh system, so the
// modelled caches, TLBs and controller pools start empty. traced turns
// on the engine's per-component self-profiler.
func runCell(c cell, traced bool) *sample {
	began := time.Now()
	s := &sample{}
	s.err = execute(c, traced, s)
	s.elapsed = time.Since(began)
	return s
}

// built is a cell that is set up and ready to run: its inputs, and a
// System (cycle backend) or Network (flow backend).
type built struct {
	spec *workload.Spec
	plan *comm.Plan
	sys  *cluster.System
	net  *flow.Network
}

// setUp loads the cell's topology, generates its inputs and builds its
// fabric, timing each call into s, and the build's allocation too.
func setUp(c cell, traced bool, s *sample) (*built, error) {
	cfg := c.cfg
	cfg.Profile = traced

	t := time.Now()
	if c.preset != "" {
		g, err := topo.Preset(c.preset)
		if err != nil {
			return nil, err
		}
		cfg = cfg.WithTopology(g)
	}
	g, err := cfg.Graph()
	s.topo = time.Since(t)
	if err != nil {
		return nil, err
	}
	cfg = cfg.WithTopology(g)

	b := &built{}
	t = time.Now()
	if c.app != "" {
		b.spec, err = workload.ByName(c.app, c.ws)
	} else {
		sc := c.cs
		sc.GPUs = len(g.Devices)
		b.plan, err = comm.ByName(c.prog, sc)
	}
	s.gen = time.Since(t)
	if err != nil {
		return nil, err
	}

	alloc := allocated()
	t = time.Now()
	if c.flow() {
		b.net, err = flow.NewNetwork(g, flow.Options{})
	} else {
		b.sys, err = cluster.Build(cfg)
	}
	s.build = time.Since(t)
	if err != nil {
		return nil, err
	}
	s.buildAlloc = allocated() - alloc
	return b, nil
}

// timeSetUp sets a cell up untraced, after a forced collection as an
// execution does, drops what it built and returns the set-up time.
func timeSetUp(c cell) (time.Duration, error) {
	heapNow()
	var s sample
	_, err := setUp(c, false, &s)
	return s.setup(), err
}

func execute(c cell, traced bool, s *sample) error {
	base, alloc0 := heapNow()
	b, err := setUp(c, traced, s)
	if err != nil {
		return err
	}
	spec, plan, sys := b.spec, b.plan, b.sys
	live, alloc2 := heapNow()
	s.buildHeap = live - min(live, base)
	s.peakHeap = live

	var app *cluster.Result
	var res *comm.Result
	t := time.Now()
	switch {
	case c.flow():
		res, err = b.net.Run(plan, cycleLimit)
	case spec != nil:
		app, err = sys.RunWorkload(spec, cycleLimit)
	default:
		res, err = sys.RunComm(plan, comm.Options{}, cycleLimit)
	}
	s.run = time.Since(t)
	if err != nil {
		return err
	}
	end := allocated()
	s.runAlloc = end - alloc2
	s.alloc = end - alloc0
	live, _ = heapNow()
	s.peakHeap = max(s.peakHeap, live)

	if sys != nil {
		s.loop = sys.Engine.WallTime()
		s.simCycles = int64(sys.Engine.Now())
		s.rounds = sys.Engine.Rounds()
		if traced {
			if s.layers, err = groupProfile(sys); err != nil {
				return err
			}
		}
		// Posted writes and writebacks can still sit in DRAM when the
		// GPUs go idle. Run the engine on, untimed, until every table
		// drains, so only a transaction that never completes fails.
		idle := func() bool { return sys.InFlight() == 0 }
		if _, err := sys.Engine.RunUntil(idle, sys.Engine.Now()+drainLimit); err != nil {
			return fmt.Errorf("%d transactions still in flight after the run: %w", sys.InFlight(), err)
		}
		if err := sys.Audit(); err != nil {
			return err
		}
	} else {
		s.loop = res.Wall
		s.sends = len(plan.Sends)
	}
	if app != nil {
		s.cycles = int64(app.Cycles)
		s.out = appOut(app)
		return nil
	}
	s.cycles = int64(res.Cycles)
	s.out = commOut(res)
	if res.Incomplete > 0 {
		return fmt.Errorf("%d of %d requests incomplete", res.Incomplete, res.Requests)
	}
	if want := plan.TotalBytes(); res.BytesMoved != want {
		return fmt.Errorf("moved %d bytes, plan has %d", res.BytesMoved, want)
	}
	return nil
}

// appOut is a workload cell's simulated fingerprint: makespan, the
// share of inter-cluster flits that carried stitched items, and the
// inter-cluster link utilization.
func appOut(r *cluster.Result) map[string]float64 {
	stitched := 0.0
	if n := r.Net.FlitsTotal.Value(); n > 0 {
		stitched = float64(r.Net.FlitsStitched.Value()) / float64(n)
	}
	return map[string]float64{
		"cycles":       float64(r.Cycles),
		"stitch_share": stitched,
		"inter_util":   r.InterUtilization,
	}
}

// commOut is a comm cell's simulated fingerprint: makespan, payload
// moved and bus bandwidth, plus the latency tail of serving programs.
func commOut(r *comm.Result) map[string]float64 {
	out := map[string]float64{
		"cycles":     float64(r.Cycles),
		"bytes":      float64(r.BytesMoved),
		"busbw_gbps": r.BusGBps(),
	}
	if r.Requests > 0 {
		out["p50"] = float64(r.P50())
		out["p99"] = float64(r.P99())
		out["n"] = float64(len(r.Latencies))
	}
	return out
}

// groupProfile charges every row of the engine's self-profile to the
// layer that registered the component, using the System's public
// component lists. A row no layer claims is an error: its host time
// would otherwise vanish into the unattributed share.
func groupProfile(sys *cluster.System) (map[string]layerCost, error) {
	owner := map[string]string{"sched": "sim.sched"}
	for _, sw := range sys.Switches {
		owner[sw.Name] = "network.switch"
	}
	for _, l := range sys.Links {
		owner[l.Name] = "network.link"
	}
	for _, ctl := range sys.Controllers {
		owner[ctl.Name] = "core"
	}
	for _, g := range sys.GPUs {
		// cluster.Build registers a GPU's tickers as <gpu>.t<i>.
		for i, t := range g.Tickers() {
			name := fmt.Sprintf("%s.t%d", g.Name, i)
			switch t.(type) {
			case *dram.DRAM:
				owner[name] = "dram"
			default:
				if t == sim.Ticker(g.RDMA) {
					owner[name] = "gpu.rdma"
				}
			}
		}
	}
	out := map[string]layerCost{}
	for _, row := range sys.Engine.Profile() {
		layer, ok := owner[row.Name]
		if !ok && strings.HasPrefix(row.Name, "comm") {
			// System.RunComm registers its injectors as comm[<run>].g<gpu>.
			layer, ok = "comm.inject", true
		}
		if !ok {
			return nil, fmt.Errorf("engine component %q belongs to no layer", row.Name)
		}
		lc := out[layer]
		lc.ticks += row.Ticks
		lc.host += row.Host
		out[layer] = lc
	}
	return out, nil
}
