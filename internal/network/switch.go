package network

import (
	"fmt"

	"netcrafter/internal/flit"
	"netcrafter/internal/sim"
)

// SwitchConfig carries the switch microarchitecture parameters
// (Table 2: 30-cycle processing latency, 1024-entry I/O buffers).
type SwitchConfig struct {
	ProcessingLatency sim.Cycle
	BufferEntries     int
}

// DefaultSwitchConfig returns the paper's baseline switch parameters.
func DefaultSwitchConfig() SwitchConfig {
	return SwitchConfig{ProcessingLatency: 30, BufferEntries: 1024}
}

// Switch is a crossbar router. Each attached port feeds an input
// pipeline with the configured processing latency; routed flits are
// placed in per-output buffers and ejected at 1 flit/cycle/port. Full
// output buffers pause routing for flits bound to them (back-pressure).
type Switch struct {
	Name  string
	cfg   SwitchConfig
	ports []*Port
	// pipes[i] holds flits from ports[i] that are traversing the
	// processing pipeline.
	pipes []*sim.Queue[*flit.Flit]
	// outBufs[i] holds routed flits waiting for egress on ports[i].
	outBufs []*sim.Queue[*flit.Flit]
	// rates[i] is the per-cycle flit service rate of ports[i]; it is
	// sized to the attached link's bandwidth so the higher-bandwidth
	// intra-cluster ports are not throttled to 1 flit/cycle.
	rates   []int
	maxRate int
	granted []int // per-tick scratch, reused across cycles
	// routes[d] is the port flits for device d leave on (see SetRoutes).
	routes []int32
	// waker is the engine handle. Besides re-arming on port input, it
	// supplies the processed-round counter the round-robin start is
	// derived from: historically the pointer advanced once per engine
	// tick round whether or not the switch had traffic, so a
	// wake-scheduled switch derives it from rounds processed, not
	// ticks received, to arbitrate identically. A switch that was
	// never registered has a nil waker, which reports 0 rounds.
	waker *sim.Waker
}

// NewSwitch creates a switch with no ports attached and no routes.
func NewSwitch(name string, cfg SwitchConfig) *Switch {
	return &Switch{Name: name, cfg: cfg}
}

// AddPort attaches a port with a 1 flit/cycle service rate and returns
// its index.
func (s *Switch) AddPort(p *Port) int {
	s.ports = append(s.ports, p)
	p.In.SetWaker(s.waker)
	s.pipes = append(s.pipes, sim.NewQueue[*flit.Flit](s.cfg.BufferEntries, s.cfg.ProcessingLatency))
	s.outBufs = append(s.outBufs, sim.NewQueue[*flit.Flit](s.cfg.BufferEntries, 1))
	s.rates = append(s.rates, 1)
	s.granted = append(s.granted, 0)
	if s.maxRate < 1 {
		s.maxRate = 1
	}
	return len(s.ports) - 1
}

// SetPortRate sets the per-cycle flit service rate of a port; topology
// code matches it to the attached link's bandwidth.
func (s *Switch) SetPortRate(port, flitsPerCycle int) {
	s.mustPort(port)
	if flitsPerCycle < 1 {
		panic("network: port rate must be >= 1")
	}
	s.rates[port] = flitsPerCycle
	if flitsPerCycle > s.maxRate {
		s.maxRate = flitsPerCycle
	}
}

// SetRoutes installs the switch's whole forwarding table: flits for
// device d leave on port routes[d]. The switch keeps the slice rather
// than copying it (package cluster hands every switch its row of one
// shared arena). A port the switch lacks panics here; a flit for a
// device past the end of the table panics when it is routed, so a
// topology bug surfaces at once instead of as lost traffic.
func (s *Switch) SetRoutes(routes []int32) {
	for _, p := range routes {
		s.mustPort(int(p))
	}
	s.routes = routes
}

// Routes returns the installed forwarding table.
func (s *Switch) Routes() []int32 { return s.routes }

func (s *Switch) mustPort(port int) {
	if port < 0 || port >= len(s.ports) {
		panic(fmt.Sprintf("network: switch %s has no port %d", s.Name, port))
	}
}

// Tick implements sim.Ticker: ingest, route, eject.
func (s *Switch) Tick(now sim.Cycle) bool {
	busy := false

	// Ingress: accept up to the port's rate into the processing
	// pipeline.
	for i, p := range s.ports {
		for k := 0; k < s.rates[i] && !s.pipes[i].Full(); k++ {
			f, ok := p.In.Pop(now)
			if !ok {
				break
			}
			s.pipes[i].Push(f, now)
			busy = true
		}
	}

	// Route: each output accepts at most its rate per cycle; inputs
	// are scanned round-robin for fairness. A flit whose output buffer
	// is full blocks its input pipeline (head-of-line blocking, as in
	// a real input-buffered switch). The scan starts at the port the
	// processed-round count selects (see the waker field).
	n := len(s.ports)
	start := 0
	if n > 0 {
		start = int(s.waker.Rounds() % int64(n))
	}
	granted := s.granted
	for i := range granted {
		granted[i] = 0
	}
	for pass := 0; pass < s.maxRate; pass++ {
		progress := false
		for k := 0; k < n; k++ {
			i := (start + k) % n
			f, ok := s.pipes[i].Peek(now)
			if !ok {
				continue
			}
			dst := f.Pkt.Dst
			if uint(dst) >= uint(len(s.routes)) {
				panic(fmt.Sprintf("network: switch %s cannot route to device %d", s.Name, dst))
			}
			out := s.routes[dst]
			if granted[out] >= s.rates[out] || s.outBufs[out].Full() {
				continue
			}
			s.pipes[i].PopReady() // readiness established by Peek above
			s.outBufs[out].Push(f, now)
			granted[out]++
			progress = true
			busy = true
		}
		if !progress {
			break
		}
	}
	// Egress: move up to the port's rate to its Out queue, from which
	// the attached link drains at link bandwidth.
	for i, p := range s.ports {
		for k := 0; k < s.rates[i]; k++ {
			f, ok := s.outBufs[i].Peek(now)
			if !ok || p.Out.Full() {
				break
			}
			s.outBufs[i].PopReady() // readiness established by Peek above
			p.Out.Push(f, now)
			busy = true
		}
	}
	return busy
}

// SetWaker implements sim.Ticker: port input pushes (link
// deliveries) re-arm the switch, and the waker's round counter drives
// the round-robin pointer (see the waker field).
func (s *Switch) SetWaker(w *sim.Waker) {
	s.waker = w
	for _, p := range s.ports {
		p.In.SetWaker(w)
	}
}

// NextWake implements sim.Ticker. Hot path: called after every
// switch tick, so the three queue heads are compared directly — no
// per-call slice.
func (s *Switch) NextWake(now sim.Cycle) sim.Cycle {
	wake := sim.CycleMax
	for i, p := range s.ports {
		if c := p.In.NextReady(); c < wake {
			wake = c
		}
		if c := s.pipes[i].NextReady(); c < wake {
			wake = c
		}
		if c := s.outBufs[i].NextReady(); c < wake {
			wake = c
		}
	}
	return wake
}

// Ports returns the attached ports (for topology wiring and tests).
func (s *Switch) Ports() []*Port { return s.ports }
