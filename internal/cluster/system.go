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
	// reads, and System.Profile reports where the host time went.
	// Simulated behavior is unaffected; host cost is 1.2-1.5x (the
	// benchmark's trace.overhead). netcrafter-sim -profile-components
	// and the benchmark's traced pass set it.
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
	// shard), bit-identical to serial execution. 0 or 1 means one shard:
	// the serial engine, driven on the caller's goroutine. Counts above
	// the cluster count clamp down. Cycle backend only; shared
	// observability sinks (metrics, spans, timeline) and the comm runner
	// require Shards <= 1.
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
	if c.GPU.FlitBytes <= flit.StitchMetaBytes {
		return c, nil, fmt.Errorf("cluster: flit size %d bytes is too small: a flit must hold more than the %d-byte stitch metadata", c.GPU.FlitBytes, flit.StitchMetaBytes)
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
	// Engine is the first (and, when Config.Shards <= 1, only) shard's
	// engine. All shard engines advance in lockstep, so Engine.Now() is
	// the system clock regardless of the shard count.
	Engine *sim.Engine
	// Engines holds one engine per shard, in shard order (length 1 for a
	// serial system).
	Engines []*sim.Engine
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
	// coord is the run loop over the shard engines (one engine for a
	// serial system); idleFns are the per-shard done predicates (each
	// shard's GPUs drained). obsSpans records that a span recorder was
	// attached, a shared sink that sharded runs refuse.
	coord    *shard.Coordinator
	idleFns  []func() bool
	obsSpans bool
	// pools holds one flit and packet free list per shard, handed to
	// the shard's RDMA engines and controllers with its scheduler.
	pools []*flit.Pool
}

// graphTopology implements gpu.Topology from the device list of a
// topology graph.
type graphTopology struct{ clusters []flit.ClusterID }

func (t graphTopology) HomeGPU(paddr uint64) int       { return int(paddr / gpuFrameSpan) }
func (t graphTopology) DeviceOf(g int) flit.DeviceID   { return flit.DeviceID(g) }
func (t graphTopology) ClusterOf(g int) flit.ClusterID { return t.clusters[g] }

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
// topo.Placement), and switch port tables read from topo.Routes'
// next-link table.
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
	// Partition clusters across shards (a serial system is the one-shard
	// plan), weighting clusters by their device count so uneven fabrics
	// split by GPU load. Each shard gets its own engine and scheduler;
	// every component registers in its owning shard's engine, in the
	// serial registration order filtered to ownership, so each shard's
	// tick order is the serial order restricted to its components.
	clusterWeights := make([]int, s.nClusters)
	for _, d := range g.Devices {
		clusterWeights[d.Cluster]++
	}
	plan := shard.PlanForWeights(clusterWeights, cfg.Shards)
	nShards := plan.Shards()
	s.Engines = make([]*sim.Engine, nShards)
	scheds := make([]*sim.Scheduler, nShards)
	s.pools = make([]*flit.Pool, nShards)
	shardGPUs := make([][]*gpu.GPU, nShards)
	for i := range s.Engines {
		s.Engines[i] = sim.NewEngine()
		scheds[i] = sim.NewScheduler()
		s.pools[i] = flit.NewPool()
		if cfg.Profile {
			s.Engines[i].EnableProfile()
		}
		s.Engines[i].Register("sched", scheds[i])
	}
	s.Engine = s.Engines[0]
	s.coord = shard.NewCoordinator(s.Engines)
	s.PT = vm.NewPageTable(s.alloc)

	clusters := make([]flit.ClusterID, len(g.Devices))
	for i, d := range g.Devices {
		clusters[i] = flit.ClusterID(d.Cluster)
	}
	tp := graphTopology{clusters: clusters}
	s.Tables = make([]*txn.Table, s.nClusters)
	for c := range s.Tables {
		s.Tables[c] = txn.NewTable(fmt.Sprintf("cluster%d", c))
	}
	for i, d := range g.Devices {
		sh := plan.Of(d.Cluster)
		gp := gpu.New(i, cfg.GPU, tp, s.PT, s.Tables[d.Cluster], scheds[sh], s.pools[sh])
		s.GPUs = append(s.GPUs, gp)
		shardGPUs[sh] = append(shardGPUs[sh], gp)
	}
	for _, sn := range g.Switches {
		s.Switches = append(s.Switches, network.NewSwitch(sn.Name, cfg.Switch))
	}

	// The routing core resolves every link end to a node ID: a switch
	// (SwitchOrdinal >= 0) or a device, whose node ID is its GPU index.
	rt, err := g.Routes()
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}

	// Auto local bandwidth per switch: the fastest non-boundary link
	// attached to it (the cluster's fast tier), so a spliced
	// controller's local segment never throttles below the fabric
	// around it. Falls back to the boundary link's own rate for a
	// switch with nothing but boundary links.
	localBW := make([]int, len(g.Switches))
	boundaryBW := make([]int, len(g.Switches))
	for li, ln := range g.Links {
		r := max(ln.RateAB(), ln.RateBA())
		into := localBW
		if g.Boundary(ln) {
			into = boundaryBW
		}
		a, b := rt.LinkNodes(li)
		for _, n := range [2]int32{a, b} {
			if si := rt.SwitchOrdinal(n); si >= 0 && r > into[si] {
				into[si] = r
			}
		}
	}
	for si, bw := range boundaryBW {
		if localBW[si] == 0 {
			localBW[si] = bw
		}
	}

	// linkPort[2*li] and linkPort[2*li+1] are the ports link li's A and
	// B ends get on their switches (a device end gets none); the route
	// install below resolves the next-link table through them.
	linkPort := make([]int32, 2*len(g.Links))
	addPort := func(si, end int, portName string, rate int) *network.Port {
		sw := s.Switches[si]
		idx := sw.AddPort(network.NewPort(portName, cfg.Switch.BufferEntries))
		sw.SetPortRate(idx, rate)
		linkPort[end] = int32(idx)
		return sw.Ports()[idx]
	}

	ncCfg := cfg.NetCrafter
	ncCfg.FlitBytes = cfg.GPU.FlitBytes
	remoteClusters := s.nClusters - 1
	ctlPerCluster := map[int]int{}
	// ctlShard[i] is the owning shard of s.Controllers[i] (the shard of
	// its cluster), for the deterministic registration pass below.
	var ctlShard []int
	// splice inserts a NetCrafter controller between switch si and the
	// guarded link end: an intra-speed segment from the switch to the
	// controller's local side, the controller ejecting at the guarded
	// link's egress rate on its remote side. Controllers of backbone
	// switches (taper points inside the inter-cluster fabric) are named
	// ncx, ncx.1, ...; clustered ones nc<cluster>[.k].
	splice := func(si, end int, egressRate int, lat sim.Cycle, lbw int) *network.Port {
		swName, cluster := g.Switches[si].Name, g.Switches[si].Cluster
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
		sh := plan.Of(cluster)
		ctl := core.NewController(ctlName, flit.ClusterID(cluster), remoteClusters, cc, s.pools[sh])
		s.Controllers = append(s.Controllers, ctl)
		ctlShard = append(ctlShard, sh)
		if lbw == 0 {
			lbw = localBW[si]
		}
		local := network.NewLink("l."+ctlName, ctl.Local, addPort(si, end, portName, lbw), lbw, lat)
		s.Links = append(s.Links, local)
		s.Engines[sh].Register(local.Name, local)
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
		a, b := rt.LinkNodes(li)
		sa, sb := rt.SwitchOrdinal(a), rt.SwitchOrdinal(b)
		switch {
		case sa < 0 || sb < 0:
			// GPU attachment (validation guarantees same-cluster,
			// device on exactly one side).
			gi, si, end := int(a), sb, 2*li+1
			if sb < 0 {
				gi, si, end = int(b), sa, 2*li
			}
			dev := g.Devices[gi].Name
			p := addPort(si, end, g.Switches[si].Name+"."+dev, max(ab, ba))
			ends := [2]*network.Port{s.GPUs[gi].RDMA.Port, p}
			if sb < 0 {
				ends = [2]*network.Port{p, s.GPUs[gi].RDMA.Port}
			}
			link := network.NewAsymLink("l."+dev, ends[0], ends[1], ab, ba, ln.Latency)
			s.Links = append(s.Links, link)
			s.Engines[plan.Of(g.Devices[gi].Cluster)].Register(link.Name, link)
		case !pl.AtA[li] && !pl.AtB[li]:
			// Unguarded switch-switch link: intra-cluster or backbone-
			// internal at the switch's full tier rate (a boundary link
			// always has at least one guarded clustered endpoint, so it
			// never lands here — one owner either way).
			pa := addPort(sa, 2*li, ln.A+"."+ln.B, max(ab, ba))
			pb := addPort(sb, 2*li+1, ln.B+"."+ln.A, max(ab, ba))
			link := network.NewAsymLink("l."+ln.A+"-"+ln.B, pa, pb, ab, ba, ln.Latency)
			s.Links = append(s.Links, link)
			s.Engines[plan.Of(g.Switches[sa].Cluster)].Register(link.Name, link)
		default:
			// A taper point on at least one side: controllers guard the
			// tapered endpoints; an unguarded endpoint (backbone side of
			// a boundary link, the fast side of an asymmetric taper)
			// takes the core segment raw.
			var endA, endB *network.Port
			if pl.AtA[li] {
				endA = splice(sa, 2*li, ab, ln.Latency, ln.LocalBW)
			} else {
				endA = addPort(sa, 2*li, ln.A+"."+ln.B, max(ab, ba))
			}
			if pl.AtB[li] {
				endB = splice(sb, 2*li+1, ba, ln.Latency, ln.LocalBW)
			} else {
				endB = addPort(sb, 2*li+1, ln.B+"."+ln.A, max(ab, ba))
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
			shA := plan.Of(g.Switches[sa].Cluster)
			shB := plan.Of(g.Switches[sb].Cluster)
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

	// Routing: every switch forwards by its row of the routing core's
	// next-link table, each link resolved to the port it got on this
	// switch's end. The rows share one arena.
	nDev := len(g.Devices)
	routes := make([]int32, len(g.Switches)*nDev)
	for si, sw := range s.Switches {
		row := routes[si*nDev : (si+1)*nDev : (si+1)*nDev]
		self := rt.SwitchNode(si)
		for d := range row {
			l := rt.NextLink(si, d)
			end := 2 * l
			if a, _ := rt.LinkNodes(l); a != self {
				end++
			}
			row[d] = linkPort[end]
		}
		sw.SetRoutes(row)
	}

	// Register remaining tickers in deterministic order.
	for si, sn := range g.Switches {
		s.Engines[plan.Of(sn.Cluster)].Register(sn.Name, s.Switches[si])
	}
	for ci, ctl := range s.Controllers {
		s.Engines[ctlShard[ci]].Register(ctl.Name, ctl)
	}
	for gi, gp := range s.GPUs {
		eng := s.Engines[plan.Of(g.Devices[gi].Cluster)]
		for i, t := range gp.Tickers() {
			eng.Register(fmt.Sprintf("%s.t%d", gp.Name, i), t)
		}
	}
	// Per-shard done predicates: a shard is idle when every GPU it owns
	// has drained (remote traffic in flight keeps its requesting GPU
	// non-idle, so the conjunction over shards equals AllIdle).
	s.idleFns = make([]func() bool, nShards)
	for i := range s.idleFns {
		gs := shardGPUs[i]
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
func (s *System) BoundaryFlows() []shard.BoundaryFlow { return s.coord.BoundaryFlows() }

// Profile returns the per-component host-time self-profile of a
// Config.Profile system, merging the per-shard engines' profiles (rows
// with the same name — the per-shard schedulers — sum; order is host
// time descending, name ascending, matching sim.Engine.Profile). Nil
// when profiling is off.
func (s *System) Profile() []sim.ComponentCost {
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
