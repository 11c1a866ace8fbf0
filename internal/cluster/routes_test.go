package cluster

import (
	"math/rand"
	"testing"

	"netcrafter/internal/gpu"
	"netcrafter/internal/network"
	"netcrafter/internal/topo"
)

// nextHops is the string view of topo.Routes kept in test code, the
// form the routing oracles compare in: hops[switch][device] is the
// neighbor the switch forwards toward that device on — the far end of
// the table's next link. topo's TestNextHopsMatchesReference pins the
// same view to the seed's per-device BFS.
func nextHops(t *testing.T, g *topo.Graph) map[string]map[string]string {
	t.Helper()
	rt, err := g.Routes()
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	hops := make(map[string]map[string]string, len(g.Switches))
	for s, sw := range g.Switches {
		m := make(map[string]string, len(g.Devices))
		for d, dev := range g.Devices {
			l := g.Links[rt.NextLink(s, d)]
			m[dev.Name] = l.A
			if l.A == sw.Name {
				m[dev.Name] = l.B
			}
		}
		hops[sw.Name] = m
	}
	return hops
}

// checkSwitchRoutes builds g and asserts that, for every switch and
// device, the port the switch's installed table names leads to the
// oracle's next-hop node: a GPU, or a switch reached directly or
// through the spliced controllers of a tapered link. Wiring does not
// depend on the GPU's internals, so each GPU gets one CU and one L2
// bank: caches are nearly all of a build's memory, and this keeps the
// 512-GPU presets cheap under the race detector.
func checkSwitchRoutes(t *testing.T, g *topo.Graph) {
	t.Helper()
	cfg := WithNetCrafter().WithTopology(g)
	cfg.GPU = gpu.Config{NumCUs: 1, L2Banks: 1}
	sys := mustBuild(t, cfg)
	hops := nextHops(t, g)

	owner := map[*network.Port]string{} // GPU and switch ports
	for i, gp := range sys.GPUs {
		owner[gp.RDMA.Port] = g.Devices[i].Name
	}
	for _, sw := range sys.Switches {
		for _, p := range sw.Ports() {
			owner[p] = sw.Name
		}
	}
	peer := map[*network.Port]*network.Port{}
	for _, l := range sys.Links {
		peer[l.A], peer[l.B] = l.B, l.A
	}
	through := map[*network.Port]*network.Port{} // one side of a controller to the other
	for _, c := range sys.Controllers {
		through[c.Local], through[c.Remote] = c.Remote, c.Local
	}
	// leadsTo follows a switch port's link to the next GPU or switch,
	// crossing at most the two controllers of a link guarded at both ends.
	leadsTo := func(p *network.Port) string {
		for i := 0; i < 3 && p != nil; i++ {
			q := peer[p]
			if name, ok := owner[q]; ok {
				return name
			}
			p = through[q]
		}
		return "<dangling>"
	}

	for _, sw := range sys.Switches {
		routes := sw.Routes()
		if len(routes) != len(g.Devices) {
			t.Fatalf("%s: switch %s routes %d devices, graph has %d", g.Name, sw.Name, len(routes), len(g.Devices))
		}
		for d, dev := range g.Devices {
			got := leadsTo(sw.Ports()[routes[d]])
			if want := hops[sw.Name][dev.Name]; got != want {
				t.Fatalf("%s: switch %s forwards %s toward %s, oracle next hop %s",
					g.Name, sw.Name, dev.Name, got, want)
			}
		}
	}
}

// TestSwitchRoutesMatchOracle is the cycle-side twin of flow's
// TestRoutesMatchOracle: the port tables Build installs follow the
// routing core's next hops on every preset and on random fabrics with
// backbone switches and asymmetric tapers.
func TestSwitchRoutesMatchOracle(t *testing.T) {
	for _, name := range topo.Presets() {
		g, err := topo.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		checkSwitchRoutes(t, g)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		checkSwitchRoutes(t, topo.RandomGraph(r, i))
	}
}
