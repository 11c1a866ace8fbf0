package bench

import (
	"runtime"
	"strings"
	"testing"
)

func tinySweepOpts() SweepOptions {
	return SweepOptions{Options: tinyOpts("GUPS", "SPMV"), ScaleName: "tiny"}
}

func TestRunMeasuredCountsCells(t *testing.T) {
	opt := tinyOpts("GUPS", "SPMV")
	opt.Parallel = 2
	rep, st, err := RunMeasured("fig3", opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.ID != "fig3" {
		t.Fatalf("bad report: %+v", rep)
	}
	if st.Cells != 4 { // 2 configs x 2 workloads
		t.Errorf("measured %d cells, want 4", st.Cells)
	}
	if st.SimCycles <= 0 || st.Wall <= 0 {
		t.Errorf("missing cost totals: %+v", st)
	}
	if st.CellsPerSec() <= 0 || st.SimCyclesPerSec() <= 0 {
		t.Errorf("throughput not derivable: %+v", st)
	}
}

func TestSweepRoundTrip(t *testing.T) {
	traj, err := RunSweep([]string{"fig3", "table1"}, tinySweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	if traj.Schema != TrajectorySchema || traj.Scale != "tiny" || traj.Seed != 1 {
		t.Fatalf("manifest header wrong: %+v", traj)
	}
	if !strings.HasPrefix(traj.TopoHash, "fnv64a:") {
		t.Fatalf("topo hash missing: %q", traj.TopoHash)
	}
	// Entries come back in sorted id order.
	if len(traj.Experiments) != 2 || traj.Experiments[0].ID != "fig3" || traj.Experiments[1].ID != "table1" {
		t.Fatalf("entries wrong: %+v", traj.Experiments)
	}
	if traj.Cells == 0 || traj.SimCycles == 0 || traj.WallSeconds <= 0 {
		t.Fatalf("aggregates missing: %+v", traj)
	}
	// Host fingerprint: the manifest must say what it ran on and with.
	if traj.HostCPUs != runtime.NumCPU() || traj.GoMaxProcs != runtime.GOMAXPROCS(0) {
		t.Fatalf("host fingerprint wrong: cpus=%d gomaxprocs=%d", traj.HostCPUs, traj.GoMaxProcs)
	}
	if traj.Shards != 1 {
		t.Fatalf("serial sweep recorded shards %d, want 1", traj.Shards)
	}

	var sb strings.Builder
	if err := traj.Write(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrajectory(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Entry("fig3") == nil || back.Entry("fig3").Report == nil {
		t.Fatal("fig3 report lost in round trip")
	}
	if v, ok := back.Entry("fig3").Report.Value("GMEAN", "ideal-speedup"); !ok || v <= 0 {
		t.Fatalf("report values lost: %v %v", v, ok)
	}
}

func TestSweepResumeSkipsExisting(t *testing.T) {
	first, err := RunSweep([]string{"fig3"}, tinySweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	so := tinySweepOpts()
	so.Resume = first
	var order []string
	var resumedIDs []string
	so.OnExperiment = func(id string, index, total int, resumed bool) {
		order = append(order, id)
		if resumed {
			resumedIDs = append(resumedIDs, id)
		}
	}
	second, err := RunSweep([]string{"table1", "fig3"}, so)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumedIDs) != 1 || resumedIDs[0] != "fig3" {
		t.Fatalf("resumed %v, want [fig3]", resumedIDs)
	}
	if len(order) != 2 {
		t.Fatalf("ran %v", order)
	}
	e := second.Entry("fig3")
	if e == nil || !e.Resumed {
		t.Fatalf("fig3 entry not marked resumed: %+v", e)
	}
	// The carried-over report must be the first run's, byte for byte.
	var a, b strings.Builder
	if err := first.Entry("fig3").Report.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := e.Report.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("resumed report differs from original")
	}
	if second.Entry("table1") == nil || second.Entry("table1").Resumed {
		t.Fatal("table1 should have executed fresh")
	}
}

func TestSweepResumeRejectsMismatch(t *testing.T) {
	prev, err := RunSweep([]string{"table1"}, tinySweepOpts())
	if err != nil {
		t.Fatal(err)
	}

	so := tinySweepOpts()
	so.ScaleName = "small"
	so.Resume = prev
	if _, err := RunSweep([]string{"table1"}, so); err == nil || !strings.Contains(err.Error(), "scale") {
		t.Fatalf("scale mismatch accepted: %v", err)
	}

	so = tinySweepOpts()
	so.Workloads = []string{"GUPS", "MT"}
	so.Resume = prev
	if _, err := RunSweep([]string{"table1"}, so); err == nil || !strings.Contains(err.Error(), "workload") {
		t.Fatalf("workload mismatch accepted: %v", err)
	}

	so = tinySweepOpts()
	so.Backend = "flow"
	so.Resume = prev
	if _, err := RunSweep([]string{"ext-collective"}, so); err == nil || !strings.Contains(err.Error(), "backend") {
		t.Fatalf("backend mismatch accepted: %v", err)
	}
	// A pre-backend manifest (empty field) resumes under an explicit
	// cycle run: both normalize to cycle.
	if prev.Backend != "cycle" {
		t.Fatalf("sweep recorded backend %q, want cycle", prev.Backend)
	}
	prev.Backend = ""
	so = tinySweepOpts()
	so.Backend = "cycle"
	so.Resume = prev
	if _, err := RunSweep([]string{"table1"}, so); err != nil {
		t.Fatalf("legacy empty-backend manifest rejected: %v", err)
	}

	// A serial manifest must not feed a sharded run: the reports are
	// byte-identical by design, but a mixed manifest would mask an
	// equivalence regression.
	so = tinySweepOpts()
	so.Shards = 2
	so.Resume = prev
	if _, err := RunSweep([]string{"table1"}, so); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("shard mismatch accepted: %v", err)
	}
	// A pre-shard manifest (field absent, decoded as 0) resumes under an
	// explicit serial run: both normalize to 1.
	if prev.Shards != 1 {
		t.Fatalf("sweep recorded shards %d, want 1", prev.Shards)
	}
	prev.Shards = 0
	so = tinySweepOpts()
	so.Shards = 1
	so.Resume = prev
	if _, err := RunSweep([]string{"table1"}, so); err != nil {
		t.Fatalf("legacy zero-shards manifest rejected: %v", err)
	}

	prev.TopoHash = "fnv64a:0000000000000000"
	so = tinySweepOpts()
	so.Resume = prev
	if _, err := RunSweep([]string{"table1"}, so); err == nil || !strings.Contains(err.Error(), "topo") {
		t.Fatalf("topology mismatch accepted: %v", err)
	}
}

func TestReadTrajectoryRejectsWrongSchema(t *testing.T) {
	if _, err := ReadTrajectory(strings.NewReader(`{"schema":"something-else/v9"}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := ReadTrajectory(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestSweepParallelInvariant is the sweep-level determinism pin: the
// reports inside two manifests produced at different parallelism are
// byte-identical (throughput metadata aside).
func TestSweepParallelInvariant(t *testing.T) {
	ids := []string{"fig3", "fig9"}
	so1 := tinySweepOpts()
	so1.Parallel = 1
	t1, err := RunSweep(ids, so1)
	if err != nil {
		t.Fatal(err)
	}
	so8 := tinySweepOpts()
	so8.Parallel = 8
	t8, err := RunSweep(ids, so8)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		var a, b strings.Builder
		if err := t1.Entry(id).Report.WriteJSON(&a); err != nil {
			t.Fatal(err)
		}
		if err := t8.Entry(id).Report.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("%s: manifest reports differ between -parallel 1 and 8", id)
		}
	}
}
