package cluster

import (
	"strings"
	"testing"

	"netcrafter/internal/topo"
	"netcrafter/internal/workload"
)

// buildPreset instantiates a named preset with NetCrafter enabled.
func buildPreset(t *testing.T, name string, shards int) *System {
	t.Helper()
	g, err := topo.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := WithNetCrafter().WithTopology(g)
	cfg.Shards = shards
	sys := mustBuild(t, cfg)
	return sys
}

// TestFatTreeControllerPlacement pins the multi-level wiring of the
// 64-GPU fat-tree: one controller per taper point (the scale-smoke
// invariant), boundary core segments in InterLinks, intra-pod tapered
// segments in TaperLinks.
func TestFatTreeControllerPlacement(t *testing.T) {
	sys := buildPreset(t, "fattree-64", 0)
	p, err := sys.Topo.ControllerPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Controllers) != p.N {
		t.Fatalf("%d controllers, %d taper points: must match", len(sys.Controllers), p.N)
	}
	// k=4: 16 edge->agg up-links taper inside pods, 16 agg->core links
	// cross the pod boundary.
	if len(sys.TaperLinks) != 16 || len(sys.InterLinks) != 16 {
		t.Fatalf("taper/inter links %d/%d, want 16/16", len(sys.TaperLinks), len(sys.InterLinks))
	}
	if len(sys.Controllers) != 32 {
		t.Fatalf("%d controllers, want 32", len(sys.Controllers))
	}
	// Edge-side controllers eject at the up-link rate (4), agg-side at
	// the core rate (2); controller names stay per-pod.
	if sys.Controllers[0].Name != "nc0" || !strings.HasPrefix(sys.Controllers[31].Name, "nc3.") {
		t.Fatalf("controller naming: first %q last %q", sys.Controllers[0].Name, sys.Controllers[31].Name)
	}
}

// TestDragonflyControllerPlacement pins the dragonfly wiring: every
// global (group-to-group) link is a boundary link guarded at both ends,
// and the all-to-all intra-group links are unguarded.
func TestDragonflyControllerPlacement(t *testing.T) {
	sys := buildPreset(t, "dragonfly-64", 0)
	p, err := sys.Topo.ControllerPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Controllers) != p.N || p.N != 56 {
		t.Fatalf("%d controllers, %d taper points, want 56", len(sys.Controllers), p.N)
	}
	if len(sys.InterLinks) != 28 || len(sys.TaperLinks) != 0 {
		t.Fatalf("inter/taper links %d/%d, want 28/0", len(sys.InterLinks), len(sys.TaperLinks))
	}
}

// TestFatTreeWorkloadRuns drives a cycle-level workload end to end on
// the 64-GPU fat-tree — multi-level controllers, backbone core — and
// audits flit conservation.
func TestFatTreeWorkloadRuns(t *testing.T) {
	sys := buildPreset(t, "fattree-64", 0)
	r := runOn(t, sys, "GUPS", workload.Tiny())
	if r.Cycles == 0 || r.Net.FlitsTotal.Value() == 0 {
		t.Fatal("fat-tree moved no cross-pod traffic")
	}
	if !sys.AllIdle() {
		t.Fatal("fat-tree did not drain")
	}
	if err := sys.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestFatTreeShardedBitIdentical runs the same fat-tree cell serial
// and sharded: the pod-to-core boundary links cross shard boundaries
// (pods split across shards, core on shard 0), and the results must be
// bit-identical per the shard package's equivalence contract.
func TestFatTreeShardedBitIdentical(t *testing.T) {
	serial := runOn(t, buildPreset(t, "fattree-64", 0), "GUPS", workload.Tiny())
	sharded := runOn(t, buildPreset(t, "fattree-64", 2), "GUPS", workload.Tiny())
	sameRun(t, "fattree-serial-vs-2shards", serial, sharded)
}
