// Package cluster assembles non-uniform bandwidth multi-GPU nodes from
// declarative topology graphs (internal/topo): GPUs attached to cluster
// switches, clusters joined by lower-bandwidth links guarded on each
// clustered side by a NetCrafter controller, plus the loader (LASP
// placement + PTE co-location) and the workload runner. The default
// configuration instantiates the paper's Figure-2 node (4 GPUs, 2
// clusters); any validated topo.Graph — more GPUs, more clusters,
// rings, fully-connected or asymmetric fabrics — builds the same way.
package cluster

import (
	"fmt"
	"io"
	"sort"
	"time"

	"netcrafter/internal/core"
	"netcrafter/internal/flit"
	"netcrafter/internal/gpu"
	"netcrafter/internal/lasp"
	"netcrafter/internal/network"
	"netcrafter/internal/obs"
	"netcrafter/internal/obs/timeline"
	"netcrafter/internal/shard"
	"netcrafter/internal/sim"
	"netcrafter/internal/topo"
	"netcrafter/internal/txn"
	"netcrafter/internal/vm"
)

// Config describes one system instance.
type Config struct {
	// GPUs in the system and per cluster (baseline: 4 and 2). Ignored
	// when Topo is set.
	GPUs           int
	GPUsPerCluster int
	// IntraGBps / InterGBps are the per-direction link bandwidths
	// (Table 2: 128 and 16). Ignored when Topo is set.
	IntraGBps int
	InterGBps int
	// LinkLatency is the propagation latency of every link. Ignored
	// when Topo is set (the graph carries per-link latencies).
	LinkLatency sim.Cycle
	Switch      network.SwitchConfig
	GPU         gpu.Config
	// NetCrafter configures the controllers at the cluster boundary.
	NetCrafter core.Config
	// Placement selects the page-placement policy (LASP default).
	Placement lasp.Policy
	// Seed drives all workload randomness.
	Seed uint64
	// Profile enables the engine's per-component host-time self-profiler
	// (sim.Engine.EnableProfile): every Tick is bracketed by host clock
	// reads, and Result.Components reports where the host time went.
	// Simulated behavior is unaffected; host cost is roughly 2x.
	Profile bool
	// Topo, when non-nil, is the explicit fabric to instantiate: link
	// bandwidths are taken from the graph (flits/cycle) and a
	// NetCrafter controller is spliced into every cluster-boundary
	// link. When nil, the GPUs/GPUsPerCluster/*GBps fields build the
	// equivalent topo.FrontierNode graph.
	Topo *topo.Graph
	// Backend selects the simulation fidelity ("" = BackendCycle).
	// BackendFlow solves communication plans analytically
	// (internal/flow) instead of building a ticked system; workload
	// runs require the cycle backend.
	Backend Backend
	// Shards partitions the simulation at cluster-boundary links and
	// runs each partition's engine on its own goroutine (internal/
	// shard), bit-identical to serial execution. 0 or 1 means serial;
	// counts above the cluster count clamp down. Cycle backend only;
	// shared observability sinks (metrics, spans, timeline) and the
	// comm runner require Shards <= 1.
	Shards int
}

// Baseline returns the paper's Table 2 system with the NetCrafter
// controller disabled (pure FIFO) — the "non-uniform" baseline.
func Baseline() Config {
	return Config{
		GPUs:           4,
		GPUsPerCluster: 2,
		IntraGBps:      128,
		InterGBps:      16,
		LinkLatency:    1,
		Switch:         network.DefaultSwitchConfig(),
		NetCrafter:     core.Passthrough(),
		Seed:           1,
	}
}

// Ideal returns the unconstrained configuration of Fig 3: every link at
// the intra-cluster bandwidth.
func Ideal() Config {
	c := Baseline()
	c.InterGBps = c.IntraGBps
	return c
}

// WithNetCrafter returns the baseline system with the paper's final
// NetCrafter design enabled.
func WithNetCrafter() Config {
	c := Baseline()
	c.NetCrafter = core.Baseline()
	return c
}

// WithTopology returns cfg with the fabric replaced by g.
func (c Config) WithTopology(g *topo.Graph) Config {
	c.Topo = g
	return c
}

// FlitsPerCycle converts a GB/s link bandwidth to flits per cycle at
// the 1 GHz clock (minimum 1).
func FlitsPerCycle(gbps, flitBytes int) int {
	f := gbps / flitBytes
	if f < 1 {
		f = 1
	}
	return f
}

// Graph returns the validated topology graph this configuration would
// instantiate — the explicit Topo, or the FrontierNode equivalent of
// the GPU-count/bandwidth fields. The benchmark harness fingerprints
// it (via its DOT rendering) into run manifests.
func (c Config) Graph() (*topo.Graph, error) {
	_, g, err := c.resolve()
	return g, err
}

// resolve normalizes the configuration and produces the topology graph
// to instantiate — the explicit Topo, or the FrontierNode equivalent of
// the legacy GPU-count/bandwidth fields.
func (c Config) resolve() (Config, *topo.Graph, error) {
	if c.Topo == nil && c.GPUs == 0 {
		c = Baseline()
	}
	if c.GPU.FlitBytes == 0 {
		c.GPU.FlitBytes = c.NetCrafter.FlitBytes
	}
	if c.GPU.FlitBytes == 0 {
		c.GPU.FlitBytes = flit.DefaultFlitBytes
	}
	if c.Topo != nil {
		g := c.Topo
		if err := g.Validate(); err != nil {
			return c, nil, fmt.Errorf("cluster: %w", err)
		}
		if g.NumClusters() < 2 {
			return c, nil, fmt.Errorf("cluster: topology %q needs at least two clusters (the paper's setting)", g.Name)
		}
		if c.Switch.BufferEntries == 0 {
			c.Switch = network.DefaultSwitchConfig()
		}
		c.GPUs = len(g.Devices)
		return c, g, nil
	}
	if c.GPUsPerCluster < 1 || c.GPUs%c.GPUsPerCluster != 0 {
		return c, nil, fmt.Errorf("cluster: GPUs must divide into equal clusters")
	}
	nClusters := c.GPUs / c.GPUsPerCluster
	if nClusters < 2 {
		return c, nil, fmt.Errorf("cluster: need at least two clusters (the paper's setting)")
	}
	lat := c.LinkLatency
	if lat < 1 {
		lat = 1
	}
	g := topo.FrontierNode(c.GPUs, nClusters,
		FlitsPerCycle(c.IntraGBps, c.GPU.FlitBytes),
		FlitsPerCycle(c.InterGBps, c.GPU.FlitBytes), lat)
	return c, g, nil
}

// gpuFrameSpan is the physical address space each GPU owns.
const gpuFrameSpan = uint64(1) << 40

// frameAlloc is the global physical frame allocator: GPU g owns
// [g*span, (g+1)*span).
type frameAlloc struct {
	next []uint64
}

func (f *frameAlloc) AllocFrame(g int) uint64 {
	addr := uint64(g)*gpuFrameSpan + f.next[g]
	f.next[g] += vm.PageBytes
	return addr
}

// System is one built multi-GPU node ready to run workloads.
type System struct {
	// Engine and Sched are the first (and, when Config.Shards <= 1,
	// only) shard's engine and scheduler. All shard engines advance in
	// lockstep, so Engine.Now() is the system clock regardless of the
	// shard count.
	Engine *sim.Engine
	Sched  *sim.Scheduler
	// Engines/Scheds hold one engine and scheduler per shard, in shard
	// order (length 1 for a serial system).
	Engines []*sim.Engine
	Scheds  []*sim.Scheduler
	GPUs    []*gpu.GPU
	// Controllers holds the NetCrafter controllers, one per taper point
	// of the fabric (topo.Placement): every clustered endpoint of every
	// cluster-boundary link plus every switch egress whose rate tapers
	// below the switch's fastest tier, in link-declaration order.
	Controllers []*core.Controller
	// InterLinks are the lower-bandwidth links between clusters (the
	// core segment of every boundary link, controller-to-controller or
	// controller-to-backbone).
	InterLinks []*network.Link
	// TaperLinks are the controller-guarded core segments that do NOT
	// cross a cluster boundary — fat-tree intra-pod up/down links and
	// other within-cluster bandwidth tapers. Empty on fabrics whose only
	// tapers are the cluster boundaries (all the seed presets).
	TaperLinks []*network.Link
	// Links holds every link of the fabric (GPU attachments, intra-
	// cluster, controller-local segments and the inter-cluster links) in
	// creation order — the row set of the timeline's congestion heatmap.
	Links []*network.Link
	// Switches holds the crossbar switches in graph declaration order.
	Switches []*network.Switch
	// Topo is the graph this system was instantiated from.
	Topo *topo.Graph
	PT   *vm.PageTable
	// Tables holds the per-cluster transaction tables (index = cluster
	// id); every memory request of every GPU in a cluster lives in its
	// table while in flight.
	Tables []*txn.Table

	cfg       Config
	nClusters int
	alloc     *frameAlloc
	rng       *sim.Rand
	// obsReg/obsTL remember the AttachObs arguments so later layers
	// (the comm runner) can wire their own instruments into the same
	// sinks; commRuns counts RunComm invocations for unique component
	// names.
	obsReg   *obs.Registry
	obsTL    *timeline.Timeline
	commRuns int
	// coord drives the shard engines in lockstep when Config.Shards
	// partitioned the system (nil = serial); idleFns are the per-shard
	// done predicates (each shard's GPUs drained), shardGPUs the GPU
	// ownership behind them. obsSpans records that a span recorder was
	// attached, a shared sink that sharded runs refuse.
	coord     *shard.Coordinator
	idleFns   []func() bool
	shardGPUs [][]*gpu.GPU
	obsSpans  bool
}

// graphTopology implements gpu.Topology from the device list of a
// topology graph.
type graphTopology struct{ clusters []flit.ClusterID }

func (t graphTopology) HomeGPU(paddr uint64) int       { return int(paddr / gpuFrameSpan) }
func (t graphTopology) DeviceOf(g int) flit.DeviceID   { return flit.DeviceID(g) }
func (t graphTopology) ClusterOf(g int) flit.ClusterID { return t.clusters[g] }

// New builds the system, panicking on an invalid configuration (Build
// is the error-returning variant for caller-supplied topologies).
func New(cfg Config) *System {
	s, err := Build(cfg)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// Build validates the configuration (and its topology, when given) and
// instantiates the system.
func Build(cfg Config) (*System, error) {
	cfg, g, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	return build(cfg, g)
}

// build instantiates a validated graph: GPUs for devices, crossbar
// switches, links with per-direction bandwidth, a NetCrafter controller
// spliced at every taper point the placement rule identifies (every
// clustered endpoint of every boundary link, plus every switch-switch
// egress whose rate tapers below the switch's fastest tier — see
// topo.Placement), and indexed BFS shortest-path routing tables.
// Components are created and registered in graph declaration order —
// registration order is part of the simulated machine's definition, and
// for the default FrontierNode graph it reproduces the original
// hand-wired system exactly.
func build(cfg Config, g *topo.Graph) (*System, error) {
	s := &System{
		Topo:      g,
		cfg:       cfg,
		nClusters: g.NumClusters(),
		alloc:     &frameAlloc{next: make([]uint64, len(g.Devices))},
		rng:       sim.NewRand(cfg.Seed),
	}
	// Partition clusters across shards (nil plan = serial), weighting
	// clusters by their device count so uneven fabrics split by GPU
	// load. Each shard gets its own engine and scheduler; every
	// component registers in its owning shard's engine, in the serial
	// registration order filtered to ownership, so each shard's tick
	// order is the serial order restricted to its components.
	clusterWeights := make([]int, s.nClusters)
	for _, d := range g.Devices {
		clusterWeights[d.Cluster]++
	}
	plan := shard.PlanForWeights(clusterWeights, cfg.Shards)
	nShards := 1
	if plan != nil {
		nShards = plan.N
	}
	shardOf := func(cluster int) int {
		if plan == nil {
			return 0
		}
		return plan.Of(cluster)
	}
	s.Engines = make([]*sim.Engine, nShards)
	s.Scheds = make([]*sim.Scheduler, nShards)
	s.shardGPUs = make([][]*gpu.GPU, nShards)
	for i := range s.Engines {
		s.Engines[i] = sim.NewEngine()
		s.Scheds[i] = sim.NewScheduler()
		if cfg.Profile {
			s.Engines[i].EnableProfile()
		}
		s.Engines[i].Register("sched", s.Scheds[i])
	}
	s.Engine, s.Sched = s.Engines[0], s.Scheds[0]
	if plan != nil {
		s.coord = shard.NewCoordinator(s.Engines)
	}
	s.PT = vm.NewPageTable(s.alloc)

	clusters := make([]flit.ClusterID, len(g.Devices))
	devIdx := make(map[string]int, len(g.Devices))
	for i, d := range g.Devices {
		clusters[i] = flit.ClusterID(d.Cluster)
		devIdx[d.Name] = i
	}
	tp := graphTopology{clusters: clusters}
	s.Tables = make([]*txn.Table, s.nClusters)
	for c := range s.Tables {
		s.Tables[c] = txn.NewTable(fmt.Sprintf("cluster%d", c))
	}
	for i, d := range g.Devices {
		sh := shardOf(d.Cluster)
		gp := gpu.New(i, cfg.GPU, tp, s.PT, s.Tables[d.Cluster], s.Scheds[sh])
		s.GPUs = append(s.GPUs, gp)
		s.shardGPUs[sh] = append(s.shardGPUs[sh], gp)
	}

	sws := make(map[string]*network.Switch, len(g.Switches))
	swCluster := make(map[string]int, len(g.Switches))
	for _, sn := range g.Switches {
		sw := network.NewSwitch(sn.Name, cfg.Switch)
		sws[sn.Name] = sw
		swCluster[sn.Name] = sn.Cluster
		s.Switches = append(s.Switches, sw)
	}

	// Auto local bandwidth per switch: the fastest non-boundary link
	// attached to it (the cluster's fast tier), so a spliced
	// controller's local segment never throttles below the fabric
	// around it. Falls back to the boundary link's own rate for a
	// switch with nothing but boundary links.
	localBW := make(map[string]int, len(g.Switches))
	boundaryBW := make(map[string]int, len(g.Switches))
	for _, ln := range g.Links {
		r := max(ln.RateAB(), ln.RateBA())
		into := localBW
		if g.Boundary(ln) {
			into = boundaryBW
		}
		for _, end := range []string{ln.A, ln.B} {
			if _, isSw := sws[end]; isSw && r > into[end] {
				into[end] = r
			}
		}
	}
	for name, bw := range boundaryBW {
		if localBW[name] == 0 {
			localBW[name] = bw
		}
	}

	// portOf[switch][neighbor node] = port index toward that neighbor.
	portOf := make(map[string]map[string]int, len(g.Switches))
	for name := range sws {
		portOf[name] = map[string]int{}
	}
	addPort := func(sw *network.Switch, portName, neighbor string, rate int) *network.Port {
		idx := sw.AddPort(network.NewPort(portName, cfg.Switch.BufferEntries))
		sw.SetPortRate(idx, rate)
		portOf[sw.Name][neighbor] = idx
		return sw.Ports()[idx]
	}

	ncCfg := cfg.NetCrafter
	ncCfg.FlitBytes = cfg.GPU.FlitBytes
	remoteClusters := s.nClusters - 1
	ctlPerCluster := map[int]int{}
	// ctlShard[i] is the owning shard of s.Controllers[i] (the shard of
	// its cluster), for the deterministic registration pass below.
	var ctlShard []int
	// splice inserts a NetCrafter controller between a switch and the
	// guarded link toward far: an intra-speed segment from the switch to
	// the controller's local side, the controller ejecting at the
	// guarded link's egress rate on its remote side. Controllers of
	// backbone switches (taper points inside the inter-cluster fabric)
	// are named ncx, ncx.1, ...; clustered ones nc<cluster>[.k].
	splice := func(swName string, cluster int, far string, egressRate int, lat sim.Cycle, lbw int) *network.Port {
		sw := sws[swName]
		k := ctlPerCluster[cluster]
		ctlPerCluster[cluster]++
		base := fmt.Sprintf("nc%d", cluster)
		if cluster == topo.Backbone {
			base = "ncx"
		}
		ctlName := base
		portName := swName + ".nc"
		if k > 0 {
			ctlName = fmt.Sprintf("%s.%d", base, k)
			portName = fmt.Sprintf("%s.nc%d", swName, k)
		}
		cc := ncCfg
		cc.EjectRate = egressRate
		ctl := core.NewController(ctlName, flit.ClusterID(cluster), remoteClusters, cc)
		s.Controllers = append(s.Controllers, ctl)
		ctlShard = append(ctlShard, shardOf(cluster))
		if lbw == 0 {
			lbw = localBW[swName]
		}
		local := network.NewLink("l."+ctlName, ctl.Local, addPort(sw, portName, far, lbw), lbw, lat)
		s.Links = append(s.Links, local)
		s.Engines[shardOf(cluster)].Register(local.Name, local)
		return ctl.Remote
	}

	nBoundary := 0
	for _, ln := range g.Links {
		if g.Boundary(ln) {
			nBoundary++
		}
	}
	// Controller placement: the taper-point rule (topo.Placement). On
	// fabrics whose only switch-switch links are boundary links this is
	// exactly the seed's clustered-boundary-endpoint rule.
	pl, err := g.ControllerPlacement()
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}

	interIdx := 0
	for li, ln := range g.Links {
		ab, ba := ln.RateAB(), ln.RateBA()
		aDev, aIsDev := devIdx[ln.A]
		bDev, bIsDev := devIdx[ln.B]
		switch {
		case aIsDev || bIsDev:
			// GPU attachment (validation guarantees same-cluster,
			// device on exactly one side).
			dev, swName := ln.A, ln.B
			gi := aDev
			if bIsDev {
				dev, swName, gi = ln.B, ln.A, bDev
			}
			sw := sws[swName]
			p := addPort(sw, swName+"."+dev, dev, max(ab, ba))
			ends := [2]*network.Port{s.GPUs[gi].RDMA.Port, p}
			if bIsDev {
				ends = [2]*network.Port{p, s.GPUs[gi].RDMA.Port}
			}
			link := network.NewAsymLink("l."+dev, ends[0], ends[1], ab, ba, ln.Latency)
			s.Links = append(s.Links, link)
			s.Engines[shardOf(g.Devices[gi].Cluster)].Register(link.Name, link)
		case !pl.AtA[li] && !pl.AtB[li]:
			// Unguarded switch-switch link: intra-cluster or backbone-
			// internal at the switch's full tier rate (a boundary link
			// always has at least one guarded clustered endpoint, so it
			// never lands here — one owner either way).
			pa := addPort(sws[ln.A], ln.A+"."+ln.B, ln.B, max(ab, ba))
			pb := addPort(sws[ln.B], ln.B+"."+ln.A, ln.A, max(ab, ba))
			link := network.NewAsymLink("l."+ln.A+"-"+ln.B, pa, pb, ab, ba, ln.Latency)
			s.Links = append(s.Links, link)
			s.Engines[shardOf(swCluster[ln.A])].Register(link.Name, link)
		default:
			// A taper point on at least one side: controllers guard the
			// tapered endpoints; an unguarded endpoint (backbone side of
			// a boundary link, the fast side of an asymmetric taper)
			// takes the core segment raw.
			var endA, endB *network.Port
			if pl.AtA[li] {
				endA = splice(ln.A, swCluster[ln.A], ln.B, ab, ln.Latency, ln.LocalBW)
			} else {
				endA = addPort(sws[ln.A], ln.A+"."+ln.B, ln.B, max(ab, ba))
			}
			if pl.AtB[li] {
				endB = splice(ln.B, swCluster[ln.B], ln.A, ba, ln.Latency, ln.LocalBW)
			} else {
				endB = addPort(sws[ln.B], ln.B+"."+ln.A, ln.A, max(ab, ba))
			}
			boundary := g.Boundary(ln)
			name := "l." + ln.A + "-" + ln.B
			if boundary {
				name = "l.inter"
				if nBoundary > 1 {
					name = fmt.Sprintf("l.inter%d", interIdx)
				}
				interIdx++
			}
			link := network.NewAsymLink(name, endA, endB, ab, ba, ln.Latency)
			if boundary {
				s.InterLinks = append(s.InterLinks, link)
			} else {
				s.TaperLinks = append(s.TaperLinks, link)
			}
			s.Links = append(s.Links, link)
			shA := shardOf(swCluster[ln.A])
			shB := shardOf(swCluster[ln.B])
			if shA == shB {
				s.Engines[shA].Register(name, link)
			} else {
				// The link crosses a shard boundary: split it into its
				// directional halves, each registered at this link's
				// slot in its owning shard's engine, with the staged
				// flits exchanged through the coordinator at epoch
				// barriers.
				hab, hba := network.SplitLink(link)
				s.Engines[shA].Register(hab.Name, hab)
				s.Engines[shB].Register(hba.Name, hba)
				s.coord.AddBoundary(hab.Name, shA, shB, hab, link.B.In)
				s.coord.AddBoundary(hba.Name, shB, shA, hba, link.A.In)
			}
		}
	}

	// Deterministic shortest-path routing tables from the indexed
	// routing core: every switch learns the egress port toward every
	// device, without materializing the string-map view. AddRoute
	// surfaces duplicate device→port conflicts as errors instead of
	// silently overwriting.
	rt, err := g.Routes()
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	for si, sn := range g.Switches {
		sw := sws[sn.Name]
		for di := range g.Devices {
			nh := rt.NextHopName(si, di)
			port, ok := portOf[sn.Name][nh]
			if !ok {
				return nil, fmt.Errorf("cluster: switch %s has no port toward %s (route to %s)", sn.Name, nh, g.Devices[di].Name)
			}
			if err := sw.AddRoute(flit.DeviceID(di), port); err != nil {
				return nil, fmt.Errorf("cluster: %w", err)
			}
		}
	}

	// Register remaining tickers in deterministic order.
	for _, sn := range g.Switches {
		s.Engines[shardOf(sn.Cluster)].Register(sn.Name, sws[sn.Name])
	}
	for ci, ctl := range s.Controllers {
		s.Engines[ctlShard[ci]].Register(ctl.Name, ctl)
	}
	for gi, gp := range s.GPUs {
		eng := s.Engines[shardOf(g.Devices[gi].Cluster)]
		for i, t := range gp.Tickers() {
			eng.Register(fmt.Sprintf("%s.t%d", gp.Name, i), t)
		}
	}
	// Per-shard done predicates: a shard is idle when every GPU it owns
	// has drained (remote traffic in flight keeps its requesting GPU
	// non-idle, so the conjunction over shards equals AllIdle).
	s.idleFns = make([]func() bool, nShards)
	for i := range s.idleFns {
		gs := s.shardGPUs[i]
		s.idleFns[i] = func() bool {
			for _, g := range gs {
				if !g.Idle() {
					return false
				}
			}
			return true
		}
	}
	return s, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// NumClusters returns the cluster count.
func (s *System) NumClusters() int { return s.nClusters }

// Shards returns the number of engine shards the system was partitioned
// into (1 = serial execution).
func (s *System) Shards() int { return len(s.Engines) }

// BoundaryFlows returns the cumulative cross-shard boundary traffic per
// direction (nil for a serial system) — every byte staged out of a
// shard must have been delivered into its peer.
func (s *System) BoundaryFlows() []shard.BoundaryFlow {
	if s.coord == nil {
		return nil
	}
	return s.coord.BoundaryFlows()
}

// runUntilIdle drives the simulation until the system drains or the
// cycle limit hits: the serial engine directly, or all shard engines in
// lockstep through the coordinator. Both paths stop at the same cycle
// with the same error by the shard package's equivalence contract.
func (s *System) runUntilIdle(limit sim.Cycle) (sim.Cycle, error) {
	if s.coord != nil {
		return s.coord.RunUntil(s.idleFns, limit)
	}
	return s.Engine.RunUntil(s.AllIdle, limit)
}

// simWall returns the host wall-clock time spent driving the
// simulation so far (the coordinator's clock when sharded — shard
// engines are stepped directly and never accumulate their own).
func (s *System) simWall() time.Duration {
	if s.coord != nil {
		return s.coord.Wall()
	}
	return s.Engine.WallTime()
}

// profile returns the per-component host-time self-profile, merging the
// per-shard engines' profiles when sharded (rows with the same name —
// the per-shard schedulers — sum; order is host time descending, name
// ascending, matching sim.Engine.Profile).
func (s *System) profile() []sim.ComponentCost {
	if len(s.Engines) == 1 {
		return s.Engine.Profile()
	}
	byName := map[string]int{}
	var out []sim.ComponentCost
	for _, e := range s.Engines {
		for _, c := range e.Profile() {
			if i, ok := byName[c.Name]; ok {
				out[i].Ticks += c.Ticks
				out[i].Busy += c.Busy
				out[i].Host += c.Host
			} else {
				byName[c.Name] = len(out)
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Host != out[j].Host {
			return out[i].Host > out[j].Host
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// AllIdle reports whether every GPU has drained.
func (s *System) AllIdle() bool {
	for _, g := range s.GPUs {
		if !g.Idle() {
			return false
		}
	}
	return true
}

// InFlight returns the number of live transactions across all clusters.
func (s *System) InFlight() int {
	n := 0
	for _, tb := range s.Tables {
		n += tb.Live()
	}
	return n
}

// DumpInFlight writes every cluster's live-transaction table — stage
// occupancy plus one line per transaction with its stage history.
func (s *System) DumpInFlight(w io.Writer) {
	now := s.Engine.Now()
	for _, tb := range s.Tables {
		tb.Dump(w, now)
	}
}

// CheckStuck runs the stuck-transaction watchdog over every cluster
// table, reporting transactions older than budget cycles with their
// full stage history, and returns how many it found.
func (s *System) CheckStuck(w io.Writer, budget sim.Cycle) int {
	now := s.Engine.Now()
	n := 0
	for _, tb := range s.Tables {
		wd := txn.Watchdog{Table: tb, Budget: budget}
		n += wd.Check(w, now)
	}
	return n
}
