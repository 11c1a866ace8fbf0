package cluster

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"netcrafter/internal/comm"
	"netcrafter/internal/obs"
	"netcrafter/internal/topo"
	"netcrafter/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata metrics goldens from the current sources")

// checkMetricsGolden compares a registry's Prometheus snapshot with
// testdata/name byte for byte (or rewrites it under -update).
func checkMetricsGolden(t *testing.T, reg *obs.Registry, name string) {
	t.Helper()
	var got bytes.Buffer
	if err := reg.WriteProm(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s: WriteProm output diverged from the committed golden (%d vs %d bytes); metric names and values must not drift",
			name, got.Len(), len(want))
	}
}

// TestMetricsGoldenWorkload pins every whole-system metric name and
// value of a NetCrafter workload run: per-GPU gauges and histograms,
// the controller gauges and series, and the inter-link gauges.
func TestMetricsGoldenWorkload(t *testing.T) {
	sys := mustBuild(t, WithNetCrafter())
	reg := obs.NewRegistry()
	sys.AttachObs(reg, nil, nil)
	spec, err := workload.ByName("GUPS", workload.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunWorkload(spec, testLimit); err != nil {
		t.Fatal(err)
	}
	checkMetricsGolden(t, reg, "metrics_gups_tiny.prom")
}

// TestMetricsGoldenTaperComm pins the same snapshot for a cycle-backend
// collective on an 8-GPU fat-tree, whose within-pod taper links add the
// taper<i> gauges and whose run adds the comm latency histogram.
func TestMetricsGoldenTaperComm(t *testing.T) {
	cfg := WithNetCrafter().WithTopology(topo.FatTree(4, 1, 8, 4, 2, 1))
	sys := mustBuild(t, cfg)
	if len(sys.TaperLinks) == 0 {
		t.Fatal("fabric has no taper links; the golden would not cover taper<i> gauges")
	}
	reg := obs.NewRegistry()
	sys.AttachObs(reg, nil, nil)
	if _, err := runCommByName(sys, "ring-allreduce", comm.Tiny(), testLimit); err != nil {
		t.Fatal(err)
	}
	checkMetricsGolden(t, reg, "metrics_fattree8_ring.prom")
}
