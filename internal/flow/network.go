package flow

import (
	"fmt"

	"netcrafter/internal/comm"
	"netcrafter/internal/flit"
	"netcrafter/internal/topo"
)

// Options tunes the analytic model. The zero value selects the same
// defaults the cycle engine uses, so a flow run is directly comparable
// to a cycle run of the same plan. Each source injects at most
// comm.LinesPerCycle line writes per cycle, as the cycle backend's
// injectors do.
type Options struct {
	// FlitBytes is the wire flit slot size; packet headers and payloads
	// are rounded up to whole flits exactly as segmentation would
	// (default flit.DefaultFlitBytes).
	FlitBytes int
}

// hopCycles is the per-switch processing latency added on top of each
// traversed link's propagation latency.
const hopCycles = 1

// Network is the analytic form of a validated topology graph: one
// capacity-annotated segment per link direction plus one injection
// segment per device, and one compiled route from every device-bearing
// switch to every device (the same BFS next-hop tables the cycle engine
// installs in its switches). A send's path is composed from these at
// use: see legs. A Network is immutable after NewNetwork and safe for
// concurrent use; each Run allocates private solver state.
type Network struct {
	opt  Options
	nDev int
	// cap is the per-segment capacity: wire segments in wire bytes per
	// cycle (rate x flit size), injection segments (the last nDev
	// entries, from injBase) in payload bytes per cycle.
	cap     []float64
	injBase int
	// up[d] is device d's uplink segment (its single link, toward its
	// attach switch) and upLat[d] that link's latency.
	up    []int32
	upLat []float64
	// row[d] is the first route index of device d's attach switch:
	// route row[d]+t runs from that switch to device t.
	row []int32
	// Route r's segments are arena[routeOff[r]:routeOff[r+1]] and its
	// latency (links plus one hop-cycle per switch left) is routeLat[r].
	routeOff []int32
	routeLat []float64
	arena    []int32
}

// legs is one send's pair of compiled routes. The payload crosses the
// source's uplink, then route fwd from the source's attach switch to the
// destination; the per-line acknowledgments cross the destination's
// uplink, then route rev back to the source. Within one leg a directed
// segment appears at most once.
type legs struct{ fwd, rev int32 }

func (n *Network) legs(src, dst int) legs {
	return legs{fwd: n.row[src] + int32(dst), rev: n.row[dst] + int32(src)}
}

// segs returns route r's segments, in traversal order.
func (n *Network) segs(r int32) []int32 { return n.arena[n.routeOff[r]:n.routeOff[r+1]] }

// rtt is the round-trip propagation latency of a src->dst send: the
// offset between its last byte entering the wire and its last
// acknowledgment returning.
func (n *Network) rtt(src, dst int, lg legs) float64 {
	return n.upLat[src] + n.routeLat[lg.fwd] + n.upLat[dst] + n.routeLat[lg.rev]
}

// NewNetwork compiles a topology graph into its analytic form from the
// graph's int routing table (topo.Routes, which validates first), so the
// same structural guarantees the cycle engine builds on hold here: every
// device has exactly one same-cluster switch attachment and every switch
// routes to every device. Compilation walks one route per (device-bearing
// switch, destination device), not one per device pair.
func NewNetwork(g *topo.Graph, opt Options) (*Network, error) {
	if opt.FlitBytes <= 0 {
		opt.FlitBytes = flit.DefaultFlitBytes
	}
	rt, err := g.Routes()
	if err != nil {
		return nil, err
	}
	nDev, nSw, nLinks := rt.NumDevices(), rt.NumSwitches(), len(g.Links)
	n := &Network{
		opt:   opt,
		nDev:  nDev,
		cap:   make([]float64, 0, 2*nLinks+nDev),
		up:    make([]int32, nDev),
		upLat: make([]float64, nDev),
		row:   make([]int32, nDev),
	}
	fb := float64(opt.FlitBytes)

	// Link i's A->B direction is segment 2i, its B->A direction 2i+1;
	// both carry the link's latency, and segHead[sg] is the node segment
	// sg leads to. A device's single link (validation guarantees it, to
	// a switch) is its uplink; devices are nodes 0..nDev-1.
	segLat := func(sg int32) float64 { return float64(g.Links[sg/2].Latency) }
	segHead := make([]int32, 2*nLinks)
	attach := make([]int, nDev)
	for i, l := range g.Links {
		n.cap = append(n.cap, float64(l.RateAB())*fb, float64(l.RateBA())*fb)
		a, b := rt.LinkNodes(i)
		segHead[2*i], segHead[2*i+1] = b, a
		switch {
		case rt.SwitchOrdinal(a) < 0:
			n.up[a], attach[a] = int32(2*i), rt.SwitchOrdinal(b)
		case rt.SwitchOrdinal(b) < 0:
			n.up[b], attach[b] = int32(2*i+1), rt.SwitchOrdinal(a)
		}
	}
	n.injBase = len(n.cap)
	for d := range g.Devices {
		n.cap = append(n.cap, comm.LinesPerCycle*comm.LineBytes)
		n.upLat[d] = segLat(n.up[d])
	}

	// nextSeg[s*nDev+d] is the segment switch s forwards toward device d
	// on: Routing's next link, in the direction leaving s (2l, or 2l+1
	// when s is the link's B end).
	nextSeg := make([]int32, nSw*nDev)
	for s := 0; s < nSw; s++ {
		sn := rt.SwitchNode(s)
		for d := 0; d < nDev; d++ {
			sg := int32(2 * rt.NextLink(s, d))
			if segHead[sg] == sn {
				sg++
			}
			nextSeg[s*nDev+d] = sg
		}
	}

	// One route per (device-bearing switch, destination), rows in order
	// of each switch's first attached device.
	rowOf := make([]int32, nSw)
	for s := range rowOf {
		rowOf[s] = -1
	}
	var rowDev []int // first device attached to each row's switch
	for d, s := range attach {
		if rowOf[s] < 0 {
			rowOf[s] = int32(len(rowDev) * nDev)
			rowDev = append(rowDev, d)
		}
		n.row[d] = rowOf[s]
	}
	nRoutes := len(rowDev) * nDev
	n.routeOff = make([]int32, 1, nRoutes+1)
	n.routeLat = make([]float64, 0, nRoutes)
	n.arena = make([]int32, 0, 4*nRoutes)
	for _, d0 := range rowDev {
		for t := 0; t < nDev; t++ {
			lat := 0.0
			for s, steps := attach[d0], 0; ; steps++ {
				if steps > nSw {
					return nil, fmt.Errorf("flow: routing loop between %s and %s",
						g.Devices[d0].Name, g.Devices[t].Name)
				}
				sg := nextSeg[s*nDev+t]
				n.arena = append(n.arena, sg)
				lat += hopCycles + segLat(sg)
				if segHead[sg] == int32(t) {
					break
				}
				s = rt.SwitchOrdinal(segHead[sg])
			}
			n.routeOff = append(n.routeOff, int32(len(n.arena)))
			n.routeLat = append(n.routeLat, lat)
		}
	}
	return n, nil
}

// Devices returns the number of endpoints the network routes between.
func (n *Network) Devices() int { return n.nDev }

// wireCost converts a send's payload size into its on-wire footprint:
// how many line writes it becomes, the forward wire bytes those lines
// occupy (request header plus payload, rounded up to whole flits per
// line packet), and the reverse wire bytes their acknowledgments
// occupy (one response-header flit per line). Dividing by the payload
// gives the per-payload-byte weights the max-min solver shares link
// capacity by — so a 64-byte line costs 80 forward wire bytes and 16
// reverse wire bytes at the default 16-byte flit, exactly what the
// cycle engine's segmentation puts on the wire.
func wireCost(payload, flitBytes int) (lines int64, fwdWire, revWire float64) {
	const reqHdr = flit.MetaHeaderBytes + flit.AddrBytes
	flits := func(bytes int) float64 {
		return float64((bytes + flitBytes - 1) / flitBytes * flitBytes)
	}
	full := payload / comm.LineBytes
	rem := payload % comm.LineBytes
	lines = int64(full)
	fwdWire = float64(full) * flits(reqHdr+comm.LineBytes)
	if rem > 0 {
		lines++
		fwdWire += flits(reqHdr + rem)
	}
	revWire = float64(lines) * flits(flit.MetaHeaderBytes)
	return lines, fwdWire, revWire
}
