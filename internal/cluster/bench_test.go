package cluster

import (
	"testing"

	"netcrafter/internal/topo"
	"netcrafter/internal/workload"
)

func benchRun(b *testing.B, cfg Config, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := RunOne(cfg, name, workload.Small(), 500_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(r.Cycles), "simcycles")
		}
	}
}

func BenchmarkBaselineGUPS(b *testing.B)   { benchRun(b, Baseline(), "GUPS") }
func BenchmarkNetCrafterGUPS(b *testing.B) { benchRun(b, WithNetCrafter(), "GUPS") }
func BenchmarkIdealGUPS(b *testing.B)      { benchRun(b, Ideal(), "GUPS") }

// BenchmarkBuild measures system set-up, the cost every cycle-backend
// cell pays before its first tick: Build (validation, routing, GPUs,
// switches, spliced controllers, links, engine registration) on the
// 64-GPU fat-tree and dragonfly and the 8-GPU four-cluster node.
func BenchmarkBuild(b *testing.B) {
	for _, name := range []string{"fattree-64", "dragonfly-64", "frontier-8x4"} {
		g, err := topo.Preset(name)
		if err != nil {
			b.Fatal(err)
		}
		cfg := WithNetCrafter().WithTopology(g)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
