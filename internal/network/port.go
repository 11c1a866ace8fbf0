// Package network models the GPU interconnect: ports, bandwidth-limited
// links, and crossbar switches with a fixed processing pipeline and
// bounded I/O buffers that exert back-pressure, per the paper's network
// switch parameters (30-cycle processing latency, 1024-entry buffers,
// 1 flit/cycle/port crossbar). A switch forwards by a static
// device→port table installed whole (Switch.SetRoutes); package
// cluster derives every switch's table from topo.Routes.
package network

import (
	"netcrafter/internal/flit"
	"netcrafter/internal/sim"
)

// Port is one attachment point of a component to the network. The
// component pushes flits it wants to send into Out and pops received
// flits from In; links shuttle flits between the Out of one port and
// the In of its peer.
type Port struct {
	Name string
	In   *sim.Queue[*flit.Flit]
	Out  *sim.Queue[*flit.Flit]
}

// NewPort creates a port whose In/Out queues hold bufCap flits each
// (0 = unbounded). The queues release items one cycle after enqueue.
func NewPort(name string, bufCap int) *Port {
	return &Port{
		Name: name,
		In:   sim.NewQueue[*flit.Flit](bufCap, 1),
		Out:  sim.NewQueue[*flit.Flit](bufCap, 1),
	}
}
