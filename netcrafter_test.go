package netcrafter_test

import (
	"testing"

	"netcrafter"
)

// TestPublicAPIQuickstart is the README example as a test.
func TestPublicAPIQuickstart(t *testing.T) {
	sc := netcrafter.Tiny()
	base, err := netcrafter.Run(netcrafter.Baseline(), "GUPS", sc)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := netcrafter.Run(netcrafter.WithNetCrafter(), "GUPS", sc)
	if err != nil {
		t.Fatal(err)
	}
	if nc.Speedup(base) <= 0 {
		t.Fatal("speedup not computable")
	}
	if base.Workload != "GUPS" || base.Cycles == 0 {
		t.Fatal("result fields empty")
	}
}

func TestPublicAPIConfigs(t *testing.T) {
	if netcrafter.Baseline().InterGBps != 16 || netcrafter.Ideal().InterGBps != 128 {
		t.Fatal("preset bandwidths wrong")
	}
	nc := netcrafter.WithNetCrafter()
	if !nc.NetCrafter.EnableStitch || !nc.NetCrafter.EnableTrim || nc.NetCrafter.Sequencing != netcrafter.SeqPTW {
		t.Fatal("WithNetCrafter incomplete")
	}
	if netcrafter.ControllerBaseline().PoolingCycles != 32 {
		t.Fatal("controller baseline wrong")
	}
	if netcrafter.ControllerOff().EnableStitch {
		t.Fatal("controller off not off")
	}
	if len(netcrafter.Workloads()) != 15 {
		t.Fatal("workload list wrong")
	}
	if len(netcrafter.Experiments()) < 20 {
		t.Fatal("experiment list wrong")
	}
}

func TestPublicAPITable1(t *testing.T) {
	rows := netcrafter.Table1(16)
	if len(rows) != 6 {
		t.Fatalf("Table1 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.BytesOccupied != r.BytesRequired+r.BytesPadded {
			t.Fatalf("%s: occupied != required+padded", r.Type)
		}
	}
}

func TestPublicAPICustomSystem(t *testing.T) {
	cfg := netcrafter.Baseline()
	cfg.NetCrafter = netcrafter.ControllerBaseline()
	cfg.NetCrafter.PoolingCycles = 64
	cfg.GPU.FetchMode = netcrafter.FetchFullLine
	sys, err := netcrafter.BuildSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumClusters() != 2 {
		t.Fatal("custom system wrong")
	}
	r, err := netcrafter.RunWithLimit(cfg, "BS", netcrafter.Tiny(), 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions == 0 {
		t.Fatal("no instructions")
	}
}

func TestPublicAPIExperiment(t *testing.T) {
	rep, err := netcrafter.RunExperiment("table1", netcrafter.ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := rep.Value("ReadRsp", "padded"); !ok || v != 12 {
		t.Fatalf("experiment value = %v,%v", v, ok)
	}
}
