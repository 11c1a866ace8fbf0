package topo

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// referenceNextHops is the seed's routing algorithm, preserved verbatim
// as the oracle the indexed core must reproduce bit-exactly: one BFS
// per device over append-built adjacency lists, ties broken toward the
// neighbor attached by the earliest-declared link. It shares no code
// with the production path.
func referenceNextHops(t *testing.T, g *Graph) map[string]map[string]string {
	t.Helper()
	id := map[string]int{}
	var names []string
	add := func(n string) { id[n] = len(names); names = append(names, n) }
	for _, d := range g.Devices {
		add(d.Name)
	}
	for _, s := range g.Switches {
		add(s.Name)
	}
	adj := make([][]int, len(names))
	for _, l := range g.Links {
		a, b := id[l.A], id[l.B]
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	hops := make(map[string]map[string]string, len(g.Switches))
	for _, s := range g.Switches {
		hops[s.Name] = make(map[string]string, len(g.Devices))
	}
	dist := make([]int, len(names))
	for di, d := range g.Devices {
		for i := range dist {
			dist[i] = -1
		}
		queue := []int{di}
		dist[di] = 0
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, p := range adj[n] {
				if dist[p] < 0 {
					dist[p] = dist[n] + 1
					queue = append(queue, p)
				}
			}
		}
		for _, s := range g.Switches {
			si := id[s.Name]
			if dist[si] < 0 {
				t.Fatalf("reference: no path from %s to %s", s.Name, d.Name)
			}
			for _, p := range adj[si] {
				if dist[p] == dist[si]-1 {
					hops[s.Name][d.Name] = names[p]
					break
				}
			}
		}
	}
	return hops
}

// NextHops is the string view of Routes, kept in test code as the
// form the routing oracles compare in: result[switch][device] = name of
// the neighbor on the shortest path from that switch to that device —
// the far end of the table's next link.
func (g *Graph) NextHops() (map[string]map[string]string, error) {
	r, err := g.Routes()
	if err != nil {
		return nil, err
	}
	hops := make(map[string]map[string]string, len(g.Switches))
	for s, sw := range g.Switches {
		m := make(map[string]string, len(g.Devices))
		for d, dev := range g.Devices {
			l := g.Links[r.NextLink(s, d)]
			m[dev.Name] = l.A
			if l.A == sw.Name {
				m[dev.Name] = l.B
			}
		}
		hops[sw.Name] = m
	}
	return hops, nil
}

// deviceDistances BFS-computes every node's hop distance to one device,
// independently of the production index.
func deviceDistances(g *Graph, dev string) map[string]int {
	adj := map[string][]string{}
	for _, l := range g.Links {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	dist := map[string]int{dev: 0}
	queue := []string{dev}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, p := range adj[n] {
			if _, ok := dist[p]; !ok {
				dist[p] = dist[n] + 1
				queue = append(queue, p)
			}
		}
	}
	return dist
}

// checkRoutingSound asserts the no-loop property on one graph: from
// every switch, following NextHops toward every device strictly
// decreases the hop distance each step and reaches the device in
// exactly its shortest-path distance.
func checkRoutingSound(t *testing.T, g *Graph) {
	t.Helper()
	hops, err := g.NextHops()
	if err != nil {
		t.Fatalf("%s: NextHops: %v", g.Name, err)
	}
	for _, d := range g.Devices {
		dist := deviceDistances(g, d.Name)
		for _, s := range g.Switches {
			cur, steps := s.Name, 0
			for cur != d.Name {
				next, ok := hops[cur][d.Name]
				if !ok {
					t.Fatalf("%s: no next hop from %s toward %s", g.Name, cur, d.Name)
				}
				if dist[next] != dist[cur]-1 {
					t.Fatalf("%s: hop %s -> %s toward %s does not decrease distance (%d -> %d)",
						g.Name, cur, next, d.Name, dist[cur], dist[next])
				}
				cur = next
				if steps++; steps > len(g.Devices)+len(g.Switches) {
					t.Fatalf("%s: routing loop from %s toward %s", g.Name, s.Name, d.Name)
				}
			}
			if steps != dist[s.Name] {
				t.Fatalf("%s: path %s -> %s took %d hops, shortest is %d",
					g.Name, s.Name, d.Name, steps, dist[s.Name])
			}
		}
	}
}

// TestNextHopsMatchesReference pins the indexed routing core to the
// seed's per-device BFS on every preset and on a corpus of random
// fabrics: the tables must be identical entry for entry, not merely
// loop-free.
func TestNextHopsMatchesReference(t *testing.T) {
	var graphs []*Graph
	for _, name := range Presets() {
		g, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		g := RandomGraph(r, i)
		if err := g.Validate(); err != nil {
			t.Fatalf("random graph %d invalid: %v", i, err)
		}
		graphs = append(graphs, g)
	}
	for _, g := range graphs {
		got, err := g.NextHops()
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		want := referenceNextHops(t, g)
		if !reflect.DeepEqual(got, want) {
			for sw, m := range want {
				for dev, hop := range m {
					if got[sw][dev] != hop {
						t.Errorf("%s: hops[%s][%s] = %q, reference %q",
							g.Name, sw, dev, got[sw][dev], hop)
					}
				}
			}
			t.Fatalf("%s: routing tables diverge from the pre-refactor reference", g.Name)
		}
	}
}

// TestNextHopsNoRoutingLoops checks the strict-decrease property on
// every preset and the same random corpus.
func TestNextHopsNoRoutingLoops(t *testing.T) {
	for _, name := range Presets() {
		g, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		checkRoutingSound(t, g)
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 25; i++ {
		checkRoutingSound(t, RandomGraph(r, i))
	}
}

// TestScaleRoutingUnderBudget is the acceptance bound of the indexed
// core: Validate plus NextHops on the 256-GPU fat-tree preset in under
// five seconds (it runs in milliseconds; the generous bound keeps slow
// CI hosts honest without flaking).
func TestScaleRoutingUnderBudget(t *testing.T) {
	g, err := Preset("fattree-256")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	hops, err := g.NextHops()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Validate+NextHops on fattree-256 took %v, budget 5s", elapsed)
	}
	if len(hops) != len(g.Switches) {
		t.Fatalf("routing covers %d switches, graph has %d", len(hops), len(g.Switches))
	}
	for sw, m := range hops {
		if len(m) != len(g.Devices) {
			t.Fatalf("switch %s routes %d devices, want %d", sw, len(m), len(g.Devices))
		}
	}
}
