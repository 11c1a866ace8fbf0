package topo

// Routing is the int-indexed shortest-path routing table of a validated
// graph: for every (switch, device) pair, the Graph.Links index of the
// first hop. Validate rejects parallel links, so a link names its hop,
// and both the cycle build (a switch port per link end) and the flow
// compiler (a segment per link direction) read this one table by index.
// Node IDs are the stable gindex assignment — devices first, then
// switches, each in declaration order — so a device's node ID equals
// its GPU index. Routes computes one BFS per switch that has devices
// attached (every device inherits its attach switch's distance field,
// since devices have exactly one link), replacing the seed's
// BFS-per-device without changing a single table entry: ties still
// break toward the neighbor attached by the earliest-declared link.
type Routing struct {
	ix   *gindex
	nDev int
	nSw  int
	// next[s*nDev+d] is the Graph.Links index of the first hop from
	// switch ordinal s (position in Graph.Switches) toward device d (GPU
	// index): d's own link when d hangs off s.
	next []int32
}

// NumDevices returns the device count (and GPU index space).
func (r *Routing) NumDevices() int { return r.nDev }

// NumSwitches returns the switch count.
func (r *Routing) NumSwitches() int { return r.nSw }

// SwitchNode returns the node ID of the s-th switch of Graph.Switches.
func (r *Routing) SwitchNode(s int) int32 { return int32(r.nDev + s) }

// SwitchOrdinal returns the Graph.Switches position of a switch node
// ID (negative for a device node).
func (r *Routing) SwitchOrdinal(node int32) int { return int(node) - r.nDev }

// LinkNodes returns the node IDs of Graph.Links[i]'s A and B endpoints.
func (r *Routing) LinkNodes(i int) (a, b int32) {
	return r.ix.linkEnd[2*i], r.ix.linkEnd[2*i+1]
}

// NextLink returns the Graph.Links index of the first hop on the
// deterministic shortest path from switch ordinal s toward device d:
// d's own link when the device hangs off that switch, a switch-switch
// link otherwise.
func (r *Routing) NextLink(s, d int) int { return int(r.next[s*r.nDev+d]) }

// Routes validates the graph and computes its routing table. Routing is
// deterministic: all links cost one hop and ties break toward the
// neighbor attached by the earliest-declared link, so two identical
// graphs always route identically (the determinism guard the
// bit-identical-stats tests rely on). Validation failures are returned
// as errors, never panics.
func (g *Graph) Routes() (*Routing, error) {
	ix, err := g.checkedIndex()
	if err != nil {
		return nil, err
	}
	nDev, nSw := len(g.Devices), len(g.Switches)
	r := &Routing{ix: ix, nDev: nDev, nSw: nSw, next: make([]int32, nSw*nDev)}

	dist := make([]int32, len(ix.names))
	queue := make([]int32, 0, len(ix.names))
	devs := make([]int32, 0, 8)
	devLinks := make([]int32, 0, 8)
	for s0 := 0; s0 < nSw; s0++ {
		s0n := nDev + s0
		// The devices hanging off this switch and their links, in
		// link-declaration order; switches without devices are covered
		// by the sweeps from the switches that have them.
		devs, devLinks = devs[:0], devLinks[:0]
		for k, p := range ix.neighbors(s0n) {
			if int(p) < nDev {
				devs = append(devs, p)
				devLinks = append(devLinks, ix.links(s0n)[k])
			}
		}
		if len(devs) == 0 {
			continue
		}
		// BFS from the attach switch: dist[n] is the hop count from n
		// to s0, which is one less than n's distance to each of devs —
		// so one sweep routes every device of this switch.
		for i := range dist {
			dist[i] = -1
		}
		queue = append(queue[:0], int32(s0n))
		dist[s0n] = 0
		for head := 0; head < len(queue); head++ {
			n := queue[head]
			dn := dist[n] + 1
			for _, p := range ix.neighbors(int(n)) {
				if dist[p] < 0 {
					dist[p] = dn
					queue = append(queue, p)
				}
			}
		}
		for s := 0; s < nSw; s++ {
			if s == s0 {
				for k, d := range devs {
					r.next[s*nDev+int(d)] = devLinks[k]
				}
				continue
			}
			sn := nDev + s
			if dist[sn] < 0 {
				return nil, errf("no path from switch %s to device %s", ix.names[sn], ix.names[devs[0]])
			}
			// The link to the first neighbor one hop closer to s0, in
			// link-declaration order. A device neighbor never qualifies:
			// a device's only link is its attach switch, so its distance
			// is the attach switch's plus one.
			hop := int32(-1)
			want := dist[sn] - 1
			for k, p := range ix.neighbors(sn) {
				if dist[p] == want {
					hop = ix.links(sn)[k]
					break
				}
			}
			for _, d := range devs {
				r.next[s*nDev+int(d)] = hop
			}
		}
	}
	return r, nil
}
