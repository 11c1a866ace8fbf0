package cluster

import (
	"fmt"

	"netcrafter/internal/lasp"
	"netcrafter/internal/sim"
	"netcrafter/internal/stats"
	"netcrafter/internal/vm"
	"netcrafter/internal/workload"
)

// Load places a workload's data pages per LASP and maps them in the
// shared page table with PTE co-location (the leaf PTE page of each
// 2MB region lands on the GPU of the region's first mapped page).
func (s *System) Load(spec *workload.Spec) {
	for _, r := range spec.Regions {
		owners := lasp.PlacePagesPolicy(r, s.cfg.GPUs, s.cfg.Placement)
		baseVPN := vm.VPN(r.Base)
		for p, owner := range owners {
			paddr := s.alloc.AllocFrame(owner)
			s.PT.Map(baseVPN+uint64(p), paddr, owner)
		}
	}
}

// instructionExpansion converts wavefront instructions to the "kilo
// instructions" of MPKI reporting: each wavefront memory instruction
// stands for roughly this many dynamic instructions (see DESIGN.md
// substitution 5). Only relative MPKI comparisons matter.
const instructionExpansion = 10

// Result aggregates everything one workload run simulated. It carries
// no host time, so two runs of one cell are reflect.DeepEqual; callers
// time runs themselves, and System.Profile says where host time went.
type Result struct {
	Workload string
	Cycles   sim.Cycle

	Instructions int64
	L1Accesses   int64
	L1Misses     int64

	// Net sums the NetCrafter controller statistics of both clusters
	// (all inter-cluster traffic).
	Net *stats.NetStats
	// InterUtilization is the mean utilization of the inter-cluster
	// link (both directions), the Fig-4 quantity.
	InterUtilization float64
	// InterReadLatency / IntraReadLatency are mean remote read
	// latencies in cycles (Figs 5, 15).
	InterReadLatency float64
	IntraReadLatency float64
	// BytesNeeded is the Fig-7 categorization of inter-cluster reads.
	BytesNeeded *stats.Histogram
	// RemoteReads/RemoteWrites summed over GPUs.
	RemoteReads  int64
	RemoteWrites int64
}

// L1MPKI returns L1 misses per kilo-instruction.
func (r *Result) L1MPKI() float64 {
	ki := float64(r.Instructions*instructionExpansion) / 1000
	if ki == 0 {
		return 0
	}
	return float64(r.L1Misses) / ki
}

// Speedup returns base.Cycles / r.Cycles (how much faster r is).
func (r *Result) Speedup(base *Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// waveSeed derives a deterministic per-wavefront seed.
func waveSeed(seed uint64, kernel, cta, wave int) uint64 {
	x := seed ^ 0x9e3779b97f4a7c15
	for _, v := range []uint64{uint64(kernel), uint64(cta), uint64(wave)} {
		x ^= v + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
	}
	return x
}

// RunWorkload loads and executes every kernel of the workload to
// completion (kernels are serialized, with L1 flushes at kernel
// boundaries under software coherence). It returns the aggregated
// result, or an error if the cycle limit is exceeded or the run
// deadlocks; the error names the live transactions (see wedged).
func (s *System) RunWorkload(spec *workload.Spec, limit sim.Cycle) (*Result, error) {
	defer s.emptyPools()
	if s.Shards() > 1 && (s.obsReg != nil || s.obsTL != nil || s.obsSpans) {
		return nil, fmt.Errorf("cluster: observability sinks (metrics, spans, timeline) are shared across components and need the serial engine: run with Shards <= 1")
	}
	s.Load(spec)
	start := s.Engine.Now()
	for ki, k := range spec.Kernels {
		placement := lasp.ScheduleCTAs(k, s.cfg.GPUs)
		for cta := 0; cta < k.CTAs; cta++ {
			g := s.GPUs[placement[cta]]
			for w := 0; w < k.WavesPerCTA; w++ {
				rng := sim.NewRand(waveSeed(s.cfg.Seed, ki, cta, w))
				g.EnqueueWave(k.NewProgram(cta, w, rng), s.Engine.Now())
			}
		}
		if _, err := s.coord.RunUntil(s.idleFns, limit); err != nil {
			return nil, s.wedged(fmt.Errorf("cluster: %s kernel %s: %w", spec.Name, k.Name, err))
		}
		for _, g := range s.GPUs {
			g.FlushL1()
		}
	}
	return s.collect(spec.Name, s.Engine.Now()-start), nil
}

// emptyPools drops every shard's flit and packet free lists. A run
// leaves them holding its peak in-flight population, which would stay
// live with the system after the run returns.
func (s *System) emptyPools() {
	for _, pl := range s.pools {
		pl.Empty()
	}
}

func (s *System) collect(name string, cycles sim.Cycle) *Result {
	r := &Result{
		Workload:    name,
		Cycles:      cycles,
		Net:         stats.NewNetStats(),
		BytesNeeded: stats.NewHistogram("le16", "le32", "le48", "le64"),
	}
	for _, g := range s.GPUs {
		r.Instructions += g.Instructions()
		r.L1Accesses += g.L1Accesses()
		r.L1Misses += g.L1Misses()
		r.RemoteReads += g.RDMA.Stats.RemoteReads.Value()
		r.RemoteWrites += g.RDMA.Stats.RemoteWrites.Value()
		r.BytesNeeded.Merge(g.RDMA.Stats.BytesNeeded)
	}
	// Latency means weighted by sample counts.
	var interSum, interN, intraSum, intraN int64
	for _, g := range s.GPUs {
		interSum += g.RDMA.Stats.InterClusterReadCycles.Value()
		interN += g.RDMA.Stats.InterClusterReads.Value()
		intraSum += g.RDMA.Stats.IntraClusterReadCycles.Value()
		intraN += g.RDMA.Stats.IntraClusterReads.Value()
	}
	if interN > 0 {
		r.InterReadLatency = float64(interSum) / float64(interN)
	}
	if intraN > 0 {
		r.IntraReadLatency = float64(intraSum) / float64(intraN)
	}
	for _, ctl := range s.Controllers {
		r.Net.Merge(ctl.Net)
	}
	if cycles > 0 && len(s.InterLinks) > 0 {
		var u float64
		for _, l := range s.InterLinks {
			u += (l.AtoB.Utilization(s.Engine.Now()) + l.BtoA.Utilization(s.Engine.Now())) / 2
		}
		r.InterUtilization = u / float64(len(s.InterLinks))
	}
	return r
}

// RunOne builds a fresh system with cfg, runs the named workload at the
// given scale, and returns the result — the top-level entry point used
// by the benchmark harness and examples.
func RunOne(cfg Config, name string, sc workload.Scale, limit sim.Cycle) (*Result, error) {
	if cfg.Backend.Norm() != BackendCycle {
		return nil, fmt.Errorf("cluster: workload %q needs the cycle backend: the flow backend models communication plans, not per-access memory traces", name)
	}
	spec, err := workload.ByName(name, sc)
	if err != nil {
		return nil, err
	}
	sys, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	return sys.RunWorkload(spec, limit)
}
