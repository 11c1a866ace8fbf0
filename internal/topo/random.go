package topo

import (
	"fmt"
	"math/rand"

	"netcrafter/internal/sim"
)

// RandomGraph builds a deterministic pseudo-random valid fabric for
// property tests here and in the packages that compile graphs:
// clustered switches with 1-3 GPUs each, optional backbone switches, a
// random connecting chain plus random extra switch-switch links at
// random asymmetric rates. The graph is named "rand-<seed>".
func RandomGraph(r *rand.Rand, seed int) *Graph {
	nClusters := 2 + r.Intn(4)
	nBackbone := r.Intn(3)
	g := &Graph{Name: fmt.Sprintf("rand-%d", seed)}
	gpu := 0
	for c := 0; c < nClusters; c++ {
		g.Switches = append(g.Switches, Switch{Name: fmt.Sprintf("sw%d", c), Cluster: c})
		for i, n := 0, 1+r.Intn(3); i < n; i++ {
			name := fmt.Sprintf("gpu%d", gpu)
			g.Devices = append(g.Devices, Device{Name: name, Cluster: c})
			g.Links = append(g.Links, Link{A: name, B: fmt.Sprintf("sw%d", c), BW: 1 + r.Intn(8), Latency: 1})
			gpu++
		}
	}
	for b := 0; b < nBackbone; b++ {
		g.Switches = append(g.Switches, Switch{Name: fmt.Sprintf("bb%d", b), Cluster: Backbone})
	}
	// A random spanning chain over the switches, then random extras.
	order := r.Perm(len(g.Switches))
	used := map[[2]int]bool{}
	connect := func(i, j int) {
		if i == j {
			return
		}
		key := [2]int{min(i, j), max(i, j)}
		if used[key] {
			return
		}
		used[key] = true
		g.Links = append(g.Links, Link{
			A: g.Switches[i].Name, B: g.Switches[j].Name,
			BW: 1 + r.Intn(8), BWBack: r.Intn(9), Latency: 1 + sim.Cycle(r.Intn(3)),
		})
	}
	for i := 1; i < len(order); i++ {
		connect(order[i-1], order[i])
	}
	for e, n := 0, r.Intn(2*len(g.Switches)); e < n; e++ {
		connect(r.Intn(len(g.Switches)), r.Intn(len(g.Switches)))
	}
	return g
}
