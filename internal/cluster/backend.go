package cluster

import (
	"fmt"

	"netcrafter/internal/comm"
	"netcrafter/internal/flow"
	"netcrafter/internal/sim"
)

// Backend selects the simulation fidelity a configuration runs at.
type Backend string

const (
	// BackendCycle is the cycle-level engine: every flit, switch
	// arbitration, controller mechanism and memory access is ticked.
	// The only backend that can run memory-trace workloads.
	BackendCycle Backend = "cycle"
	// BackendFlow is the analytic flow-level fast path
	// (internal/flow): communication plans are solved as max-min fair
	// fluid flows over the routed topology, orders of magnitude faster
	// and without microbehavior fidelity. See DESIGN.md section 2.14.
	BackendFlow Backend = "flow"
)

// ParseBackend resolves a backend name; the empty string means cycle
// (the historical default — configurations predating the selector keep
// their behavior).
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", string(BackendCycle):
		return BackendCycle, nil
	case string(BackendFlow):
		return BackendFlow, nil
	}
	return "", fmt.Errorf("cluster: unknown backend %q (have cycle, flow)", s)
}

// Norm returns the backend with the empty value normalized to cycle.
func (b Backend) Norm() Backend {
	if b == "" {
		return BackendCycle
	}
	return b
}

// RunCommPlan executes an explicit communication plan under cfg's
// backend. The cycle backend builds a fresh system and drives per-GPU
// injectors on the wake-scheduled engine; the flow backend solves the
// plan analytically on the resolved topology graph without building a
// system (so observability hooks, which instrument ticked components,
// do not apply). Both honor the cycle limit and report comm.Result.
func RunCommPlan(cfg Config, p *comm.Plan, opt comm.Options, limit sim.Cycle) (*comm.Result, error) {
	switch cfg.Backend.Norm() {
	case BackendCycle:
		sys, err := Build(cfg)
		if err != nil {
			return nil, err
		}
		return sys.RunComm(p, opt, limit)
	case BackendFlow:
		if cfg.Shards > 1 {
			return nil, fmt.Errorf("cluster: Shards=%d partitions the cycle backend's engine; the flow backend is a single analytic solve — run it with Shards <= 1", cfg.Shards)
		}
		rcfg, g, err := cfg.resolve()
		if err != nil {
			return nil, err
		}
		res, err := flow.Run(g, p, flow.Options{
			FlitBytes: rcfg.GPU.FlitBytes,
			Start:     opt.Start,
		}, limit)
		if err != nil {
			return nil, fmt.Errorf("cluster: comm %s: %w", p.Name, err)
		}
		return res, nil
	}
	return nil, fmt.Errorf("cluster: unknown backend %q (have cycle, flow)", cfg.Backend)
}
