package cluster

import (
	"fmt"
	"testing"

	"netcrafter/internal/core"
	"netcrafter/internal/flit"
	"netcrafter/internal/gpu"
	"netcrafter/internal/network"
	"netcrafter/internal/shard"
	"netcrafter/internal/sim"
	"netcrafter/internal/topo"
	"netcrafter/internal/vm"
	"netcrafter/internal/workload"
)

// legacyTopo is the gpu.Topology of the original hand-wired builder.
type legacyTopo struct{ gpusPerCluster int }

func (t legacyTopo) HomeGPU(paddr uint64) int       { return int(paddr / gpuFrameSpan) }
func (t legacyTopo) DeviceOf(g int) flit.DeviceID   { return flit.DeviceID(g) }
func (t legacyTopo) ClusterOf(g int) flit.ClusterID { return flit.ClusterID(g / t.gpusPerCluster) }

// legacyNew is the seed's hand-wired system builder, preserved verbatim
// as the reference the graph-driven builder must reproduce bit-exactly:
// same component names, port order, and engine registration order.
func legacyNew(cfg Config) *System {
	if cfg.GPUs == 0 {
		cfg = Baseline()
	}
	if cfg.GPU.FlitBytes == 0 {
		cfg.GPU.FlitBytes = cfg.NetCrafter.FlitBytes
	}
	if cfg.GPU.FlitBytes == 0 {
		cfg.GPU.FlitBytes = flit.DefaultFlitBytes
	}
	eng, sched := sim.NewEngine(), sim.NewScheduler()
	s := &System{
		Engine:    eng,
		Engines:   []*sim.Engine{eng},
		cfg:       cfg,
		nClusters: cfg.GPUs / cfg.GPUsPerCluster,
		alloc:     &frameAlloc{next: make([]uint64, cfg.GPUs)},
		rng:       sim.NewRand(cfg.Seed),
		coord:     shard.NewCoordinator([]*sim.Engine{eng}),
	}
	s.idleFns = []func() bool{s.AllIdle}
	s.Engine.Register("sched", sched)
	tp := legacyTopo{gpusPerCluster: cfg.GPUsPerCluster}
	s.PT = vm.NewPageTable(s.alloc)

	flitBytes := cfg.GPU.FlitBytes
	intraRate := FlitsPerCycle(cfg.IntraGBps, flitBytes)
	interRate := FlitsPerCycle(cfg.InterGBps, flitBytes)

	nClusters := cfg.GPUs / cfg.GPUsPerCluster
	switches := make([]*network.Switch, nClusters)

	for g := 0; g < cfg.GPUs; g++ {
		s.GPUs = append(s.GPUs, gpu.New(g, cfg.GPU, tp, s.PT, nil, sched))
	}

	for c := 0; c < nClusters; c++ {
		sw := network.NewSwitch(fmt.Sprintf("sw%d", c), cfg.Switch)
		switches[c] = sw
		for i := 0; i < cfg.GPUsPerCluster; i++ {
			g := c*cfg.GPUsPerCluster + i
			pIdx := sw.AddPort(network.NewPort(fmt.Sprintf("sw%d.gpu%d", c, g), cfg.Switch.BufferEntries))
			sw.SetPortRate(pIdx, intraRate)
			link := network.NewLink(fmt.Sprintf("l.gpu%d", g), s.GPUs[g].RDMA.Port, sw.Ports()[pIdx], intraRate, cfg.LinkLatency)
			sw.SetRoute(tp.DeviceOf(g), pIdx)
			s.Engine.Register(link.Name, link)
		}
	}

	ncCfg := cfg.NetCrafter
	ncCfg.FlitBytes = flitBytes
	ncCfg.EjectRate = interRate
	for c := 0; c < nClusters; c++ {
		ctl := core.NewController(fmt.Sprintf("nc%d", c), flit.ClusterID(c), nClusters-1, ncCfg)
		s.Controllers = append(s.Controllers, ctl)
		sw := switches[c]
		pIdx := sw.AddPort(network.NewPort(fmt.Sprintf("sw%d.nc", c), cfg.Switch.BufferEntries))
		sw.SetPortRate(pIdx, intraRate)
		link := network.NewLink(fmt.Sprintf("l.nc%d", c), ctl.Local, sw.Ports()[pIdx], intraRate, cfg.LinkLatency)
		sw.SetDefaultRoute(pIdx)
		s.Engine.Register(link.Name, link)
	}
	inter := network.NewLink("l.inter", s.Controllers[0].Remote, s.Controllers[1].Remote, interRate, cfg.LinkLatency)
	s.InterLinks = append(s.InterLinks, inter)
	s.Engine.Register(inter.Name, inter)

	for c, sw := range switches {
		s.Engine.Register(fmt.Sprintf("sw%d", c), sw)
	}
	for _, ctl := range s.Controllers {
		s.Engine.Register(ctl.Name, ctl)
	}
	for _, g := range s.GPUs {
		for i, t := range g.Tickers() {
			s.Engine.Register(fmt.Sprintf("%s.t%d", g.Name, i), t)
		}
	}
	return s
}

func runOn(t *testing.T, sys *System, name string, sc workload.Scale) *Result {
	t.Helper()
	spec, err := workload.ByName(name, sc)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.RunWorkload(spec, testLimit)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func sameRun(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Cycles != b.Cycles {
		t.Errorf("%s: cycles %d vs %d", label, a.Cycles, b.Cycles)
	}
	if av, bv := a.Net.FlitsTotal.Value(), b.Net.FlitsTotal.Value(); av != bv {
		t.Errorf("%s: inter flits %d vs %d", label, av, bv)
	}
	if av, bv := a.Net.WireBytes.Value(), b.Net.WireBytes.Value(); av != bv {
		t.Errorf("%s: wire bytes %d vs %d", label, av, bv)
	}
	if a.InterUtilization != b.InterUtilization {
		t.Errorf("%s: inter utilization %v vs %v", label, a.InterUtilization, b.InterUtilization)
	}
	if a.Instructions != b.Instructions {
		t.Errorf("%s: instructions %d vs %d", label, a.Instructions, b.Instructions)
	}
}

// TestTopoDefaultMatchesLegacyWiring is the no-drift acceptance gate of
// the topology subsystem: instantiating the default 4-GPU/2-cluster
// configuration through the declarative graph must reproduce the seed's
// hand-wired machine exactly — identical cycle counts and traffic, not
// merely statistically close.
func TestTopoDefaultMatchesLegacyWiring(t *testing.T) {
	for _, tc := range []struct {
		label string
		cfg   Config
	}{
		{"baseline", Baseline()},
		{"netcrafter", WithNetCrafter()},
		{"ideal", Ideal()},
	} {
		for _, wl := range []string{"GUPS", "SPMV"} {
			want := runOn(t, legacyNew(tc.cfg), wl, workload.Tiny())
			got := runOn(t, mustBuild(t, tc.cfg), wl, workload.Tiny())
			sameRun(t, tc.label+"/"+wl, want, got)
		}
	}
}

// TestTopoGraphConfigMatchesDefault pins the explicit-graph path to the
// legacy-fields path: WithTopology(FrontierNode(4,2,8,1,1)) is the same
// machine as the default Config.
func TestTopoGraphConfigMatchesDefault(t *testing.T) {
	def := tinyRun(t, WithNetCrafter(), "GUPS")
	viaGraph := tinyRun(t, WithNetCrafter().WithTopology(topo.FrontierNode(4, 2, 8, 1, 1)), "GUPS")
	sameRun(t, "graph-vs-default", def, viaGraph)
}

// TestRingTopologyMultiHop runs the 4-cluster ring, where traffic
// between opposite clusters transits an intermediate cluster's
// controllers, and audits conservation afterwards.
func TestRingTopologyMultiHop(t *testing.T) {
	g, err := topo.Preset("ring-8x4")
	if err != nil {
		t.Fatal(err)
	}
	sys := mustBuild(t, WithNetCrafter().WithTopology(g))
	if len(sys.Controllers) != 8 || len(sys.InterLinks) != 4 {
		t.Fatalf("ring wiring: %d controllers, %d inter links (want 8, 4)",
			len(sys.Controllers), len(sys.InterLinks))
	}
	r := runOn(t, sys, "GUPS", workload.Tiny())
	if r.Cycles == 0 || r.Net.FlitsTotal.Value() == 0 {
		t.Fatal("ring moved no traffic")
	}
	if !sys.AllIdle() {
		t.Fatal("ring did not drain")
	}
	if err := sys.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestChainTopologyDeterminism loads a spec whose cross-cluster path
// crosses four switches (sw0 -> bb0 -> bb1 -> sw1) and demands two
// identical runs produce bit-identical statistics.
func TestChainTopologyDeterminism(t *testing.T) {
	const spec = `{
	  "name": "backbone-chain",
	  "devices": [
	    {"name": "gpu0", "cluster": 0}, {"name": "gpu1", "cluster": 0},
	    {"name": "gpu2", "cluster": 1}, {"name": "gpu3", "cluster": 1}
	  ],
	  "switches": [
	    {"name": "sw0", "cluster": 0}, {"name": "sw1", "cluster": 1},
	    {"name": "bb0"}, {"name": "bb1"}
	  ],
	  "links": [
	    {"a": "gpu0", "b": "sw0", "bw": 8},
	    {"a": "gpu1", "b": "sw0", "bw": 8},
	    {"a": "gpu2", "b": "sw1", "bw": 8},
	    {"a": "gpu3", "b": "sw1", "bw": 8},
	    {"a": "sw0", "b": "bb0", "bw": 1},
	    {"a": "bb0", "b": "bb1", "bw": 1},
	    {"a": "bb1", "b": "sw1", "bw": 1}
	  ]
	}`
	g, err := topo.Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		sys := mustBuild(t, WithNetCrafter().WithTopology(g))
		if len(sys.Switches) != 4 {
			t.Fatalf("chain has %d switches", len(sys.Switches))
		}
		return runOn(t, sys, "SPMV", workload.Tiny())
	}
	a, b := run(), run()
	sameRun(t, "chain-repeat", a, b)
	if a.Net.FlitsTotal.Value() == 0 {
		t.Fatal("no cross-cluster traffic through the backbone chain")
	}
}

// TestAsymmetricTopologyRuns drives direction-asymmetric boundary links
// end to end.
func TestAsymmetricTopologyRuns(t *testing.T) {
	g, err := topo.Preset("asym-4x2")
	if err != nil {
		t.Fatal(err)
	}
	sys := mustBuild(t, WithNetCrafter().WithTopology(g))
	l := sys.InterLinks[0]
	if l.ABRate == l.BARate {
		t.Fatalf("asym preset built a symmetric inter link (%d/%d)", l.ABRate, l.BARate)
	}
	r := runOn(t, sys, "GUPS", workload.Tiny())
	if r.Cycles == 0 {
		t.Fatal("no work")
	}
	if err := sys.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestFullyConnectedPortCount checks the widest preset: each cluster
// switch carries its two GPUs plus a controller toward each of the
// three peer clusters — five ports, beyond the seed's 3-port switches.
func TestFullyConnectedPortCount(t *testing.T) {
	g, err := topo.Preset("fc-8x4")
	if err != nil {
		t.Fatal(err)
	}
	sys := mustBuild(t, WithNetCrafter().WithTopology(g))
	for _, sw := range sys.Switches {
		if n := len(sw.Ports()); n != 5 {
			t.Fatalf("switch %s has %d ports, want 5", sw.Name, n)
		}
	}
	if len(sys.Controllers) != 12 || len(sys.InterLinks) != 6 {
		t.Fatalf("fc wiring: %d controllers, %d inter links (want 12, 6)",
			len(sys.Controllers), len(sys.InterLinks))
	}
	r := runOn(t, sys, "GUPS", workload.Tiny())
	if r.Cycles == 0 || !sys.AllIdle() {
		t.Fatal("fully-connected fabric did not complete")
	}
}

// TestBuildRejectsBadTopologies checks graph problems surface as errors
// from Build.
func TestBuildRejectsBadTopologies(t *testing.T) {
	oneCluster := &topo.Graph{
		Name:     "one",
		Devices:  []topo.Device{{Name: "gpu0", Cluster: 0}},
		Switches: []topo.Switch{{Name: "sw0", Cluster: 0}},
		Links:    []topo.Link{{A: "gpu0", B: "sw0", BW: 8, Latency: 1}},
	}
	if _, err := Build(Baseline().WithTopology(oneCluster)); err == nil {
		t.Fatal("single-cluster topology accepted")
	}
	invalid := &topo.Graph{Name: "empty"}
	if _, err := Build(Baseline().WithTopology(invalid)); err == nil {
		t.Fatal("empty topology accepted")
	}
}
