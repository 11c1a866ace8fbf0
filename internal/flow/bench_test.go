package flow

import (
	"testing"

	"netcrafter/internal/comm"
	"netcrafter/internal/topo"
)

func benchPreset(b *testing.B, name string) *topo.Graph {
	b.Helper()
	g, err := topo.Preset(name)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkNewNetwork times flow-path compilation on the 512-GPU
// presets, the set-up cost that dominates a flow-backend cell there.
func BenchmarkNewNetwork(b *testing.B) {
	for _, name := range []string{"fattree-512", "dragonfly-512"} {
		g := benchPreset(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewNetwork(g, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFlowRun times the solver alone: an alltoall at comm.Small
// on the 64-GPU fat-tree, compiled once outside the loop.
func BenchmarkFlowRun(b *testing.B) {
	n, err := NewNetwork(benchPreset(b, "fattree-64"), Options{})
	if err != nil {
		b.Fatal(err)
	}
	sc := comm.Small()
	sc.GPUs = n.Devices()
	p, err := comm.ByName("alltoall", sc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Run(p, 0); err != nil {
			b.Fatal(err)
		}
	}
}
