package cluster

import (
	"testing"

	"netcrafter/internal/comm"
	"netcrafter/internal/topo"
)

// drainLimit bounds how long a comm run's posted DRAM writes may take to
// complete after RunComm returns (the benchmark's correctness gate uses
// the same budget).
const drainLimit = 1_000_000

// TestBackendsAgreeOnPlanAccounting runs every comm program on both
// backends. Both count a plan through comm.Tracker, so everything the
// plan fixes must agree: transfers, line writes, bytes and requests,
// with every request complete. Only the timing is the backend's own.
// The cycle system must then drain: RunComm returns once every send is
// acknowledged and the GPUs are idle, while DRAM write-backs can still
// be in flight, so the engine runs on until every transaction table is
// empty and the audit passes.
func TestBackendsAgreeOnPlanAccounting(t *testing.T) {
	for _, fabric := range []string{"", "asym-4x2", "frontier-8x4", "fattree-64"} {
		cfg := WithNetCrafter()
		name := "default"
		if fabric != "" {
			g, err := topo.Preset(fabric)
			if err != nil {
				t.Fatal(err)
			}
			cfg, name = cfg.WithTopology(g), fabric
		}
		flowCfg := cfg
		flowCfg.Backend = BackendFlow
		for _, prog := range comm.Names() {
			sys := mustBuild(t, cfg)
			sc := comm.Tiny()
			sc.GPUs = len(sys.GPUs)
			p, err := comm.ByName(prog, sc)
			if err != nil {
				t.Fatal(err)
			}
			cyc, err := sys.RunComm(p, comm.Options{}, testLimit)
			if err != nil {
				t.Fatalf("%s/%s cycle: %v", name, prog, err)
			}
			fl, err := RunCommPlan(flowCfg, p, comm.Options{}, testLimit)
			if err != nil {
				t.Fatalf("%s/%s flow: %v", name, prog, err)
			}
			if cyc.Plan != fl.Plan || cyc.GPUs != fl.GPUs || cyc.Sends != fl.Sends ||
				cyc.LineWrites != fl.LineWrites || cyc.BytesMoved != fl.BytesMoved || cyc.Requests != fl.Requests {
				t.Errorf("%s/%s: backends disagree on the plan's accounting:\ncycle %s requests=%d\nflow  %s requests=%d",
					name, prog, cyc, cyc.Requests, fl, fl.Requests)
			}
			for _, r := range []struct {
				backend string
				res     *comm.Result
			}{{"cycle", cyc}, {"flow", fl}} {
				if r.res.Incomplete != 0 || len(r.res.Latencies) != r.res.Requests {
					t.Errorf("%s/%s %s: %d of %d requests incomplete, %d latencies",
						name, prog, r.backend, r.res.Incomplete, r.res.Requests, len(r.res.Latencies))
				}
			}
			idle := func() bool { return sys.InFlight() == 0 }
			if _, err := sys.Engine.RunUntil(idle, sys.Engine.Now()+drainLimit); err != nil {
				t.Fatalf("%s/%s: %d transactions still in flight after the run: %v", name, prog, sys.InFlight(), err)
			}
			if err := sys.Audit(); err != nil {
				t.Errorf("%s/%s: %v", name, prog, err)
			}
		}
	}
}
