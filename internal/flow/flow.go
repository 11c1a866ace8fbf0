// Package flow is the analytic flow-level fast path of the simulator:
// it executes the same communication plans (internal/comm) over the
// same topology graphs (internal/topo) as the cycle-level engine, but
// models each transfer as a fluid flow over its routed path instead of
// ticking per-flit components. Multi-minute cycle-level sweeps become
// milliseconds, at the cost of microbehavior fidelity — the trade m4
// and ATLAHS make for application-centric scale-out studies (see
// PAPERS.md and DESIGN.md section 2.14).
//
// # Model
//
// A topology graph compiles (NewNetwork) into directed wire segments —
// one per link direction, capacity = flits/cycle x flit bytes — plus
// one injection segment per device modeling the source's
// comm.LinesPerCycle packetization cap, and one route from every switch
// that has devices attached to every device (the same BFS next-hop
// tables the cycle engine installs in its switches). Every send of a
// plan becomes a flow over its source's uplink plus its source
// switch's route to the destination, weighted by its on-wire
// footprint: request headers round
// each 64-byte line up to 80 forward wire bytes at 16-byte flits, and
// each line's acknowledgment occupies one response flit on the
// reverse path, so ack contention on shared back-channels is part of
// the allocation.
//
// Active flows share segment capacity weighted max-min fairly by
// progressive filling: the fair share level rises uniformly until a
// segment saturates, flows crossing it freeze, and the level
// continues rising for the rest. The solver is event-driven — rates
// change only when a flow starts (send eligibility: step frontier
// reached and timestamp arrived), finishes its transmission, or has
// its last acknowledgment return one path round trip later. Step
// barriers, request completion and the reported Result are
// comm.Tracker's: the solver acknowledges each send, at the whole cycle
// its last acknowledgment returns in, through the same tracker the
// cycle backend's injectors drive.
//
// # What it deliberately does not model
//
// No per-flit arbitration or queueing jitter, no NetCrafter
// controller microbehavior (stitching, trimming, pooling, PTW
// sequencing — boundary links carry raw graph rates), no posted-write
// window (the injector's 64 lines; never the binding constraint at
// default parameters), and no per-injector issue-order serialization
// within a step. Memory-trace workloads cannot run at flow level at
// all — their per-access cache/VM behavior is the signal. The bench
// experiment ext-calibrate quantifies the resulting error per
// workload against the cycle backend.
//
// # Concurrency and ownership
//
// A Network is immutable after NewNetwork and safe for concurrent use
// from any number of goroutines; each Run allocates private solver
// state, so concurrent Runs over one Network share nothing mutable.
// The plan is only read during Run, and the returned Result is
// freshly allocated and owned by the caller. Runs are deterministic:
// segment and flow iteration orders are fixed and no host time, map
// iteration or randomness feeds the computation, so equal (graph,
// plan, options) inputs produce byte-identical Results at any
// concurrency level.
package flow

import (
	"fmt"
	"time"

	"netcrafter/internal/comm"
	"netcrafter/internal/sim"
	"netcrafter/internal/topo"
)

// Run compiles the graph and executes the plan analytically; use
// NewNetwork plus Network.Run to amortize compilation over several
// plans on one fabric. A limit <= 0 means no cycle limit.
func Run(g *topo.Graph, p *comm.Plan, opt Options, limit sim.Cycle) (*comm.Result, error) {
	n, err := NewNetwork(g, opt)
	if err != nil {
		return nil, err
	}
	return n.Run(p, limit)
}

// Run executes one plan on the compiled network and reports the same
// measurements cluster.System.RunComm would: makespan to the last
// acknowledgment, bytes and line writes, and exact sorted per-request
// latencies. It fails, like the cycle engine, when the plan would not
// finish within the cycle limit.
func (n *Network) Run(p *comm.Plan, limit sim.Cycle) (*comm.Result, error) {
	wallStart := time.Now()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.GPUs > n.nDev {
		return nil, fmt.Errorf("flow: plan %q needs %d GPUs, network has %d", p.Name, p.GPUs, n.nDev)
	}
	s := newSolver(n, p, limit)
	if err := s.solve(); err != nil {
		return nil, err
	}
	res := s.tk.Result()
	res.Wall = time.Since(wallStart)
	return res, nil
}
