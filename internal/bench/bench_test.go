package bench

import (
	"strings"
	"testing"

	"netcrafter/internal/workload"
)

// tinyOpts runs experiments at smoke-test size.
func tinyOpts(workloads ...string) Options {
	if len(workloads) == 0 {
		workloads = []string{"GUPS", "SPMV"}
	}
	return Options{Scale: workload.Tiny(), Workloads: workloads, Limit: 50_000_000}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "table3",
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig12", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"fig20", "fig21", "fig22",
		"ext-trimwrites", "ext-scaling", "ext-placement", "ext-toposcale", "ext-collective",
		"ext-calibrate", "ext-shard", "ext-scale",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(IDs()), len(want))
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := Run("fig99", Options{}); err == nil {
		t.Fatal("Run of unknown experiment accepted")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rep, err := Run("table1", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		row, col string
		want     float64
	}{
		{"ReadReq", "required", 12}, {"ReadReq", "flits", 1},
		{"WriteReq", "required", 76}, {"WriteReq", "flits", 5},
		{"ReadRsp", "padded", 12}, {"ReadRsp", "occupied", 80},
		{"WriteRsp", "required", 4}, {"PTRsp", "required", 12},
	} {
		got, ok := rep.Value(tc.row, tc.col)
		if !ok || got != tc.want {
			t.Errorf("table1[%s,%s] = %v,%v want %v", tc.row, tc.col, got, ok, tc.want)
		}
	}
}

func TestTables2And3(t *testing.T) {
	rep2, err := Run("table2", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rep2.Value("interGBps", "value"); v != 16 {
		t.Fatalf("table2 interGBps = %v", v)
	}
	if !strings.Contains(rep2.Notes, "128GB/s") && !strings.Contains(rep2.Notes, "intra=128") {
		t.Fatalf("table2 notes missing bandwidth: %s", rep2.Notes)
	}
	rep3, err := Run("table3", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep3.Rows) != 15 {
		t.Fatalf("table3 lists %d workloads", len(rep3.Rows))
	}
}

func TestFig3ShapeIdealWins(t *testing.T) {
	rep, err := Run("fig3", tinyOpts("GUPS", "SPMV"))
	if err != nil {
		t.Fatal(err)
	}
	g, ok := rep.Value("GMEAN", "ideal-speedup")
	if !ok || g < 1.0 {
		t.Fatalf("ideal GMEAN speedup %.3f, want >= 1.0", g)
	}
}

func TestFig9PTWShareSmall(t *testing.T) {
	rep, err := Run("fig9", tinyOpts("GUPS", "SPMV"))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		ptw := row.Values[0]
		if ptw <= 0 || ptw > 0.5 {
			t.Errorf("%s: PTW share %.3f outside (0, 0.5]; paper reports ~13%%", row.Label, ptw)
		}
		if diff := row.Values[0] + row.Values[1] - 1; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: shares do not sum to 1", row.Label)
		}
	}
}

func TestFig12PoolingRaisesStitchRate(t *testing.T) {
	rep, err := Run("fig12", tinyOpts("GUPS"))
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := rep.Value("GUPS", "stitch-only")
	pooled, _ := rep.Value("GUPS", "with-pooling")
	if pooled < plain {
		t.Fatalf("pooling lowered stitch rate: %.3f -> %.3f", plain, pooled)
	}
	if pooled == 0 {
		t.Fatal("no stitching at all")
	}
}

func TestFig17GranularityOrdering(t *testing.T) {
	rep, err := Run("fig17", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("fig17 has %d rows", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		nc, at := row.Values[0], row.Values[1]
		if nc > at {
			t.Errorf("granularity %s: trim MPKI %.2f exceeds all-trim %.2f", row.Label, nc, at)
		}
	}
}

func TestFig22CoversRatios(t *testing.T) {
	rep, err := Run("fig22", tinyOpts("GUPS"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("fig22 has %d rows, want 6 bandwidth cases", len(rep.Rows))
	}
	labels := map[string]bool{}
	for _, r := range rep.Rows {
		labels[r.Label] = true
		if r.Values[0] <= 0 {
			t.Errorf("%s: non-positive speedup", r.Label)
		}
	}
	if !labels["128:16"] || !labels["32:32"] {
		t.Fatal("missing the baseline or homogeneous case")
	}
}

func TestReportFormatting(t *testing.T) {
	rep := &Report{ID: "x", Title: "t", Columns: []string{"a"}, Notes: "n"}
	rep.AddRow("w", 1.5)
	rep.Mean()
	s := rep.String()
	if !strings.Contains(s, "GMEAN") || !strings.Contains(s, "paper shape") {
		t.Fatalf("report rendering missing pieces:\n%s", s)
	}
	if _, ok := rep.Value("w", "nope"); ok {
		t.Fatal("Value found a nonexistent column")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched AddRow did not panic")
		}
	}()
	rep.AddRow("bad", 1, 2)
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if len(o.Workloads) != 15 || o.Limit == 0 || o.Scale.Steps == 0 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	if len(DefaultOptions().Workloads) == 0 || len(FullOptions().Workloads) != 15 {
		t.Fatal("preset options wrong")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := &Report{ID: "figX", Title: "t", Columns: []string{"a", "b"}, Notes: "n"}
	rep.AddRow("w1", 1.5, 2.5)
	rep.AddRow("w2", 3, 4)
	var buf strings.Builder
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := back.UnmarshalJSON([]byte(buf.String())); err != nil {
		t.Fatal(err)
	}
	if back.ID != rep.ID || len(back.Rows) != 2 || back.Rows[1].Values[1] != 4 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if v, ok := back.Value("w1", "b"); !ok || v != 2.5 {
		t.Fatalf("Value after round trip = %v,%v", v, ok)
	}
}

func TestReportJSONRejectsRaggedRows(t *testing.T) {
	bad := `{"id":"x","columns":["a","b"],"rows":[{"label":"w","values":[1]}]}`
	var r Report
	if err := r.UnmarshalJSON([]byte(bad)); err == nil {
		t.Fatal("ragged row accepted")
	}
}

func TestReportCSV(t *testing.T) {
	rep := &Report{ID: "figX", Title: "t", Columns: []string{"a"}}
	rep.AddRow("w,1", 0.125) // label with a comma must be quoted
	var buf strings.Builder
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "label,a") || !strings.Contains(got, `"w,1",0.125`) {
		t.Fatalf("csv output wrong:\n%s", got)
	}
}

func TestReportChart(t *testing.T) {
	rep := &Report{ID: "x", Title: "t", Columns: []string{"a"}, Notes: "n"}
	rep.AddRow("w1", 2)
	rep.AddRow("w2", 1)
	var sb strings.Builder
	if err := rep.WriteChart(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "########") || !strings.Contains(out, "max 2.000") {
		t.Fatalf("chart rendering wrong:\n%s", out)
	}
}

// TestTopoScaleBytesShrink pins the topology-scaling acceptance: on the
// largest swept fabric (8 GPUs, 4 clusters, non-uniform links),
// NetCrafter must move fewer inter-cluster wire bytes than the
// passthrough baseline.
func TestTopoScaleBytesShrink(t *testing.T) {
	sc := workload.Tiny()
	sc.CTAs = 16
	rep, err := Run("ext-toposcale", Options{Scale: sc, Workloads: []string{"GUPS"}, Limit: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	ratio, ok := rep.Value("8gpu-4cl", "nc-bytes-ratio")
	if !ok {
		t.Fatalf("no 8gpu-4cl row in %v", rep.Rows)
	}
	if ratio >= 1 {
		t.Fatalf("NetCrafter did not cut inter-cluster bytes at 8x4: ratio %.3f", ratio)
	}
	if sp, ok := rep.Value("8gpu-4cl", "nc-speedup"); !ok || sp <= 0 {
		t.Fatalf("degenerate nc-speedup %v (ok=%v)", sp, ok)
	}
}
