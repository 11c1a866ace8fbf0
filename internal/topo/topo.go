// Package topo is the declarative topology subsystem: a graph model of
// devices (GPU RDMA endpoints), switches, and links with per-direction
// bandwidth (flits/cycle) and propagation latency. A Graph can come
// from a compact JSON spec (Parse), from a programmatic builder
// (FrontierNode, Ring, FullyConnected, ...), or from a named preset.
// After Validate passes, Routes derives the deterministic shortest-path
// routing table (BFS with stable tie-breaks): for every switch and
// device, the index in Links of the first hop. It is the one routing
// representation — package cluster turns it into switch port tables
// when it instantiates the graph as a runnable system (placing a
// NetCrafter controller at every bandwidth taper point the graph
// identifies), and package flow into link-direction segments.
//
// # Conventions
//
// Nodes are named; a Device's slice position is its GPU index and
// flit.DeviceID. Every node carries a cluster id, with Backbone (-1)
// marking switches that belong to the inter-cluster fabric itself. A
// link is cluster-boundary (Boundary) when its endpoints' clusters
// differ — those are the slow, controller-managed edges of the paper's
// non-uniform hierarchy. Bandwidths are integer flits/cycle per
// direction (8 = 128 GB/s at the default 16-byte flit; asymmetric
// directions via BWBack), latencies in sim.Cycle. DOT renders any graph
// for Graphviz, and the benchmark harness fingerprints fabrics by
// hashing that rendering into sweep manifests.
package topo

import (
	"netcrafter/internal/names"
	"netcrafter/internal/sim"
)

// Backbone is the cluster ID of a switch that belongs to no GPU
// cluster: part of the inter-cluster fabric, outside every controller.
const Backbone = -1

// Device is one GPU's network endpoint (its RDMA engine). The device's
// position in Graph.Devices is its GPU index and its flit.DeviceID.
type Device struct {
	Name string
	// Cluster is the GPU cluster this device belongs to (>= 0).
	Cluster int
}

// Switch is one crossbar switch of the fabric.
type Switch struct {
	Name string
	// Cluster is the GPU cluster the switch serves, or Backbone (-1)
	// for a switch of the inter-cluster fabric.
	Cluster int
}

// Link is one connection between two named nodes. Bandwidth is given
// per direction in flits/cycle (at 16-byte flits and the 1 GHz clock,
// 1 flit/cycle = 16 GB/s); a zero BWBack means the link is symmetric.
type Link struct {
	A, B string
	// BW is the A->B bandwidth in flits/cycle.
	BW int
	// BWBack is the B->A bandwidth in flits/cycle (0 = same as BW).
	BWBack int
	// Latency is the per-hop propagation latency in cycles (>= 1).
	Latency sim.Cycle
	// LocalBW sizes the spliced controller-to-switch segment when this
	// link crosses a cluster boundary (a NetCrafter controller is
	// inserted at each clustered endpoint). 0 = auto: the fastest
	// non-boundary link attached to that switch, so the controller —
	// not the wire into it — is the shaping bottleneck.
	LocalBW int
}

// RateAB returns the A->B bandwidth in flits/cycle.
func (l Link) RateAB() int { return l.BW }

// RateBA returns the B->A bandwidth in flits/cycle.
func (l Link) RateBA() int {
	if l.BWBack > 0 {
		return l.BWBack
	}
	return l.BW
}

// Graph is a declarative fabric description. The zero value is invalid;
// construct via a builder, Parse, or by filling the fields and calling
// Validate.
type Graph struct {
	Name     string
	Devices  []Device
	Switches []Switch
	Links    []Link
}

// NumClusters returns the number of distinct device clusters.
// Validation guarantees device clusters are contiguous from 0, so this
// is max(cluster)+1.
func (g *Graph) NumClusters() int {
	n := 0
	for _, d := range g.Devices {
		if d.Cluster+1 > n {
			n = d.Cluster + 1
		}
	}
	return n
}

// NodeCluster returns the cluster of a named node (Backbone for
// backbone switches) and whether the node exists.
func (g *Graph) NodeCluster(name string) (int, bool) {
	for _, d := range g.Devices {
		if d.Name == name {
			return d.Cluster, true
		}
	}
	for _, s := range g.Switches {
		if s.Name == name {
			return s.Cluster, true
		}
	}
	return 0, false
}

// Boundary reports whether the link crosses a cluster boundary (its
// endpoints' clusters differ; a backbone switch is outside every
// cluster). Instantiation splices a NetCrafter controller at each
// clustered endpoint of every boundary link. Unknown endpoints are not
// a boundary; Validate rejects them separately.
func (g *Graph) Boundary(l Link) bool {
	ca, oka := g.NodeCluster(l.A)
	cb, okb := g.NodeCluster(l.B)
	return oka && okb && ca != cb
}

// gindex is the resolved form of a Graph shared by validation, routing
// and instantiation: stable integer node IDs (devices first, then
// switches, each in declaration order) and a compact CSR adjacency
// whose per-node neighbor order is link-declaration order — the order
// that makes routing tie-breaks deterministic. Each adjacency entry
// also carries the Graph.Links index it was reached over, which is what
// the routing table stores. int32 IDs keep the routing tables and BFS
// frontiers cache-compact at the 512-GPU scale.
type gindex struct {
	id      map[string]int
	names   []string
	isDev   []bool
	cluster []int
	// CSR adjacency: node n's neighbors are adjNode[adjStart[n]:adjStart[n+1]],
	// reached over the links at the same positions of adjLink.
	adjStart []int32
	adjNode  []int32
	adjLink  []int32
	// linkEnd[2i], linkEnd[2i+1] are the node IDs of Links[i].A and .B.
	linkEnd []int32
}

// neighbors returns node n's neighbor IDs in link-declaration order.
func (ix *gindex) neighbors(n int) []int32 {
	return ix.adjNode[ix.adjStart[n]:ix.adjStart[n+1]]
}

// links returns the Graph.Links indices of node n's links, parallel to
// neighbors(n).
func (ix *gindex) links(n int) []int32 {
	return ix.adjLink[ix.adjStart[n]:ix.adjStart[n+1]]
}

// degree returns node n's link count.
func (ix *gindex) degree(n int) int {
	return int(ix.adjStart[n+1] - ix.adjStart[n])
}

// index resolves names to IDs and builds the CSR adjacency. It reports
// the first duplicate or empty name and dangling link endpoints (with a
// did-you-mean suggestion); deeper checks live in Validate.
func (g *Graph) index() (*gindex, error) {
	n := len(g.Devices) + len(g.Switches)
	ix := &gindex{
		id:      make(map[string]int, n),
		names:   make([]string, 0, n),
		isDev:   make([]bool, 0, n),
		cluster: make([]int, 0, n),
	}
	add := func(name string, dev bool, cluster int) error {
		if name == "" {
			return errf("node with empty name")
		}
		if _, dup := ix.id[name]; dup {
			return errf("duplicate node name %q", name)
		}
		ix.id[name] = len(ix.names)
		ix.names = append(ix.names, name)
		ix.isDev = append(ix.isDev, dev)
		ix.cluster = append(ix.cluster, cluster)
		return nil
	}
	for _, d := range g.Devices {
		if err := add(d.Name, true, d.Cluster); err != nil {
			return nil, err
		}
	}
	for _, s := range g.Switches {
		if err := add(s.Name, false, s.Cluster); err != nil {
			return nil, err
		}
	}
	ix.adjStart = make([]int32, n+1)
	ix.linkEnd = make([]int32, 2*len(g.Links))
	for i, l := range g.Links {
		a, oka := ix.id[l.A]
		b, okb := ix.id[l.B]
		if !oka {
			return nil, unknownNodeErr(ix, l, l.A)
		}
		if !okb {
			return nil, unknownNodeErr(ix, l, l.B)
		}
		ix.linkEnd[2*i], ix.linkEnd[2*i+1] = int32(a), int32(b)
		ix.adjStart[a]++
		ix.adjStart[b]++
	}
	// adjStart[v] now counts v's links; summed, it is the end of v's
	// range. Filling links in reverse declaration order, each at its
	// endpoints' decremented ends, leaves every range in declaration
	// order and adjStart[v] at its start, with no cursor array.
	for i := 1; i <= n; i++ {
		ix.adjStart[i] += ix.adjStart[i-1]
	}
	ix.adjNode = make([]int32, ix.adjStart[n])
	ix.adjLink = make([]int32, ix.adjStart[n])
	for i := len(g.Links) - 1; i >= 0; i-- {
		a, b := ix.linkEnd[2*i], ix.linkEnd[2*i+1]
		ix.adjStart[a]--
		ix.adjNode[ix.adjStart[a]], ix.adjLink[ix.adjStart[a]] = b, int32(i)
		ix.adjStart[b]--
		ix.adjNode[ix.adjStart[b]], ix.adjLink[ix.adjStart[b]] = a, int32(i)
	}
	return ix, nil
}

// unknownNodeErr reports a dangling link endpoint, suggesting the
// closest declared node name when the reference looks like a typo.
func unknownNodeErr(ix *gindex, l Link, name string) error {
	if s := names.Closest(name, ix.names); s != "" {
		return errf("link %s-%s references unknown node %q (did you mean %q?)", l.A, l.B, name, s)
	}
	return errf("link %s-%s references unknown node %q", l.A, l.B, name)
}
