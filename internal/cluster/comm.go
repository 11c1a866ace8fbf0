package cluster

import (
	"fmt"

	"netcrafter/internal/comm"
	"netcrafter/internal/sim"
)

// The communication-plan runner: lowers a comm.Plan onto a built
// system by registering one comm.Injector per participant GPU on the
// engine. Injected traffic flows through the same RDMA engines,
// switches, controllers and links as workload traffic — the point of
// the exercise is to observe collective and serving traffic under the
// non-uniform fabric the rest of the repo models.

// commFrameBase places injected writes in the upper half of each GPU's
// physical frame span, far above anything the workload loader
// allocates (frames grow from the bottom of the span), so comm traffic
// never aliases workload data.
const commFrameBase = gpuFrameSpan / 2

// commAddr maps (dst GPU, source stream offset) to a physical address
// homed on dst.
func commAddr(dst int, off uint64) uint64 {
	return uint64(dst)*gpuFrameSpan + commFrameBase + off%(gpuFrameSpan/2)
}

// RunComm executes a communication plan on the system: one injector
// per participant GPU, run until every transfer is acknowledged and
// the fabric has drained, or the cycle limit is hit. When AttachObs
// was called with a registry, the run's exact request latencies are
// observed into a "comm.request_latency_cycles" histogram after it
// completes; with a timeline, each request also lands on a
// "comm.requests" dwell track. Repeated calls on one system run back
// to back on the engine's clock.
func (s *System) RunComm(p *comm.Plan, opt comm.Options, limit sim.Cycle) (*comm.Result, error) {
	defer s.emptyPools()
	if s.Shards() > 1 {
		return nil, fmt.Errorf("cluster: the comm runner registers global injectors and a shared tracker and needs the serial engine: run with Shards <= 1")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.GPUs > len(s.GPUs) {
		return nil, fmt.Errorf("cluster: plan %q needs %d GPUs, system has %d", p.Name, p.GPUs, len(s.GPUs))
	}
	opt.Start = s.Engine.Now()
	opt.AddrOf = commAddr
	hist := s.obsReg.Hist("comm.request_latency_cycles")
	if s.obsTL != nil && opt.Dwell == nil {
		opt.Dwell = s.obsTL.NewDwellTrack("comm.requests")
	}
	tk := comm.NewTracker(p, opt)
	for g := 0; g < p.GPUs; g++ {
		inj := comm.NewInjector(g, p, tk, s.GPUs[g].RDMA, s.Tables[s.Topo.Devices[g].Cluster], opt)
		name := fmt.Sprintf("comm.g%d", g)
		if s.commRuns > 0 {
			name = fmt.Sprintf("comm%d.g%d", s.commRuns, g)
		}
		s.Engine.Register(name, inj)
	}
	s.commRuns++
	wallStart := s.Engine.WallTime()
	done := []func() bool{func() bool { return tk.Done() && s.AllIdle() }}
	if _, err := s.coord.RunUntil(done, limit); err != nil {
		return nil, s.wedged(fmt.Errorf("cluster: comm %s: %w", p.Name, err))
	}
	res := tk.Result()
	res.Wall = s.Engine.WallTime() - wallStart
	for _, l := range res.Latencies {
		hist.Observe(float64(l))
	}
	return res, nil
}

// RunCommOne generates one named communication program sized for cfg's
// fabric (Scale.GPUs 0 means every GPU participates) and executes it
// under cfg's backend — the comm counterpart of RunOne, dispatched
// through RunCommPlan.
func RunCommOne(cfg Config, name string, sc comm.Scale, limit sim.Cycle) (*comm.Result, error) {
	if sc.GPUs == 0 {
		g, err := cfg.Graph()
		if err != nil {
			return nil, err
		}
		sc.GPUs = len(g.Devices)
	}
	p, err := comm.ByName(name, sc)
	if err != nil {
		return nil, err
	}
	return RunCommPlan(cfg, p, comm.Options{}, limit)
}
