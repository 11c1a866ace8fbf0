package bench

import (
	"math"
	"strings"
	"testing"

	"netcrafter/internal/cluster"
)

// Documented calibration tolerances, asserted here and quoted in
// EXPERIMENTS.md: the flow backend's makespan stays within 1.01x of the
// cycle engine's (usually below it, not always: small-scale serving
// cells read up to +0.99%), and its error at the tiny scale stays
// within these envelopes. Serving p99 is not bounded.
// Numbers above the envelope mean the flow model drifted from the
// engine (or vice versa) — recalibrate before relaxing them.
const (
	// calTolCollective bounds |err%| for the inter-cluster collectives
	// (ring, tree, a2a, pipe), where bandwidth sharing dominates and
	// the fluid model is at its best (observed: 4-23%).
	calTolCollective = 35.0
	// calTolTensor bounds |err%| for the intra-cluster tensor pattern,
	// which is latency- and issue-bound — the regime the fluid model
	// deliberately does not capture (observed: ~72%).
	calTolTensor = 85.0
	// calTolServing bounds |err%| for the open-loop serving makespans,
	// which are arrival-dominated and agree tightly (observed: <2%).
	calTolServing = 5.0
)

// TestExtCalibrateTiny runs the calibration experiment and asserts
// the documented error envelopes: every cell pairs up, the flow
// backend never moves different bytes, its makespan never exceeds
// 1.01x the engine's (it drops queueing and arbitration, so it mostly
// reads below), and the per-regime relative errors hold.
func TestExtCalibrateTiny(t *testing.T) {
	rep, err := Run("ext-calibrate", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	cells := commCells(tinyOpts().withDefaults())
	if len(rep.Rows) != len(cells) {
		t.Fatalf("report has %d rows for %d cells", len(rep.Rows), len(cells))
	}
	for _, row := range rep.Rows {
		cyc, _ := rep.Value(row.Label, "cyc-cycles")
		flw, _ := rep.Value(row.Label, "flow-cycles")
		errPct, _ := rep.Value(row.Label, "cyc-err%")
		if cyc <= 0 || flw <= 0 {
			t.Errorf("%s: empty makespan (cycle %v, flow %v)", row.Label, cyc, flw)
			continue
		}
		if flw > cyc*1.01 {
			t.Errorf("%s: flow makespan %v exceeds 1.01x cycle %v", row.Label, flw, cyc)
		}
		tol := calTolCollective
		switch {
		case strings.HasPrefix(row.Label, "tensor/"):
			tol = calTolTensor
		case strings.HasPrefix(row.Label, "poisson/"), strings.HasPrefix(row.Label, "burst/"):
			tol = calTolServing
		}
		if math.Abs(errPct) > tol {
			t.Errorf("%s: makespan error %.1f%% outside the documented ±%.0f%% envelope", row.Label, errPct, tol)
		}
	}
}

// TestFlowBackendParallelDeterminism extends the byte-identical-at-
// any-parallelism contract to the flow backend: the analytic solver
// is deterministic, so fanning its cells across workers must not
// change a byte of the report.
func TestFlowBackendParallelDeterminism(t *testing.T) {
	opt := tinyOpts()
	opt.Backend = cluster.BackendFlow
	opt.Parallel = 1
	serial, err := Run("ext-collective", opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallel = 8
	par, err := Run("ext-collective", opt)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := reportBytes(t, serial), reportBytes(t, par); got != want {
		t.Errorf("-parallel 8 flow report differs from -parallel 1:\nserial:\n%s\nparallel:\n%s", want, got)
	}
}

// TestFlowBackendFidelityGate pins the fidelity contract: the flow
// backend runs exactly the FidelityAny experiments and refuses the
// cycle-only ones with an error naming what it can run.
func TestFlowBackendFidelityGate(t *testing.T) {
	ids := IDsFor(cluster.BackendFlow)
	want := []string{"ext-collective", "ext-scale"}
	if len(ids) != len(want) || ids[0] != want[0] || ids[1] != want[1] {
		t.Fatalf("IDsFor(flow) = %v, want %v", ids, want)
	}
	if got := IDsFor(cluster.BackendCycle); len(got) != len(IDs()) {
		t.Errorf("IDsFor(cycle) = %d experiments, want all %d", len(got), len(IDs()))
	}
	opt := tinyOpts()
	opt.Backend = cluster.BackendFlow
	for _, id := range []string{"fig3", "ext-calibrate"} {
		if _, err := Run(id, opt); err == nil {
			t.Errorf("Run(%s, flow) succeeded, want the fidelity gate error", id)
		} else if !strings.Contains(err.Error(), "cycle backend") {
			t.Errorf("Run(%s, flow) error %q does not name the cycle backend", id, err)
		}
	}
}
