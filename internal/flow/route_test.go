package flow

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"netcrafter/internal/topo"
)

// oracle is the original all-pairs compilation, kept as the reference
// the per-switch routes must reproduce: every ordered device pair
// walked hop by hop through string-keyed next-hop and segment maps,
// with segment ids assigned per link direction in declaration order.
type oracle struct {
	g      *topo.Graph
	hops   map[string]map[string]string
	segOf  map[[2]string]oracleSeg
	attach map[string]string
	hopLat float64
}

type oracleSeg struct {
	id  int32
	lat float64
}

func newOracle(t *testing.T, g *topo.Graph) *oracle {
	t.Helper()
	rt, err := g.Routes()
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	o := &oracle{
		g:      g,
		hops:   make(map[string]map[string]string, len(g.Switches)),
		segOf:  make(map[[2]string]oracleSeg, 2*len(g.Links)),
		attach: make(map[string]string, len(g.Devices)),
		hopLat: hopCycles,
	}
	for s, sw := range g.Switches {
		m := make(map[string]string, len(g.Devices))
		for d, dev := range g.Devices {
			l := g.Links[rt.NextLink(s, d)]
			m[dev.Name] = l.A
			if l.A == sw.Name {
				m[dev.Name] = l.B
			}
		}
		o.hops[sw.Name] = m
	}
	isDev := make(map[string]bool, len(g.Devices))
	for _, d := range g.Devices {
		isDev[d.Name] = true
	}
	for i, l := range g.Links {
		o.segOf[[2]string{l.A, l.B}] = oracleSeg{int32(2 * i), float64(l.Latency)}
		o.segOf[[2]string{l.B, l.A}] = oracleSeg{int32(2*i + 1), float64(l.Latency)}
		switch {
		case isDev[l.A]:
			o.attach[l.A] = l.B
		case isDev[l.B]:
			o.attach[l.B] = l.A
		}
	}
	return o
}

// walk returns the segments a packet from device src to device dst
// crosses and their propagation latency, links plus one hop-cycle per
// switch passed.
func (o *oracle) walk(src, dst int) ([]int32, float64, error) {
	srcName, dstName := o.g.Devices[src].Name, o.g.Devices[dst].Name
	var segs []int32
	lat := 0.0
	cur, next := srcName, o.attach[srcName]
	for steps := 0; ; steps++ {
		if steps > len(o.g.Switches)+1 {
			return nil, 0, fmt.Errorf("routing loop between %s and %s", srcName, dstName)
		}
		ds, ok := o.segOf[[2]string{cur, next}]
		if !ok {
			return nil, 0, fmt.Errorf("no link %s-%s on the %s->%s route", cur, next, srcName, dstName)
		}
		segs = append(segs, ds.id)
		lat += ds.lat
		if next == dstName {
			return segs, lat, nil
		}
		lat += o.hopLat
		nh, ok := o.hops[next][dstName]
		if !ok {
			return nil, 0, fmt.Errorf("switch %s has no route to %s", next, dstName)
		}
		cur, next = next, nh
	}
}

// checkRoutesMatchOracle compiles g and asserts that every ordered
// device pair's forward and reverse segment sequences and round-trip
// latency equal the oracle's.
func checkRoutesMatchOracle(t *testing.T, g *topo.Graph) {
	t.Helper()
	n, err := NewNetwork(g, Options{})
	if err != nil {
		t.Fatalf("%s: NewNetwork: %v", g.Name, err)
	}
	o := newOracle(t, g)
	var fwd, rev []int32
	for src := range g.Devices {
		for dst := range g.Devices {
			if src == dst {
				continue
			}
			wantF, latF, err := o.walk(src, dst)
			if err != nil {
				t.Fatalf("%s: oracle: %v", g.Name, err)
			}
			wantR, latR, err := o.walk(dst, src)
			if err != nil {
				t.Fatalf("%s: oracle: %v", g.Name, err)
			}
			lg := n.legs(src, dst)
			fwd = append(append(fwd[:0], n.up[src]), n.segs(lg.fwd)...)
			rev = append(append(rev[:0], n.up[dst]), n.segs(lg.rev)...)
			if !slices.Equal(fwd, wantF) || !slices.Equal(rev, wantR) {
				t.Fatalf("%s: %d->%d: segments fwd %v rev %v, oracle fwd %v rev %v",
					g.Name, src, dst, fwd, rev, wantF, wantR)
			}
			if got, want := n.rtt(src, dst, lg), latF+latR; got != want {
				t.Fatalf("%s: %d->%d: round trip %v, oracle %v", g.Name, src, dst, got, want)
			}
		}
	}
}

// TestRoutesMatchOracle pins the per-switch route compilation to the
// all-pairs string walk on every preset and on random fabrics with
// asymmetric rates and multi-cycle links.
func TestRoutesMatchOracle(t *testing.T) {
	for _, name := range topo.Presets() {
		g, err := topo.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		checkRoutesMatchOracle(t, g)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		checkRoutesMatchOracle(t, topo.RandomGraph(r, i))
	}
}

// TestNewNetworkRejectsInvalidGraph: compilation validates first, so a
// structurally broken graph fails with topo's error, never a panic.
func TestNewNetworkRejectsInvalidGraph(t *testing.T) {
	g := topo.FrontierNode(4, 2, 8, 1, 1)
	g.Links = g.Links[1:] // gpu0 loses its only link
	if _, err := NewNetwork(g, Options{}); err == nil || !strings.Contains(err.Error(), "topo:") {
		t.Fatalf("err = %v, want a topo validation error", err)
	}
}
