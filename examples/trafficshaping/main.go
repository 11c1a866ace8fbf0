// Trafficshaping: a mechanism-level tour of the NetCrafter controller.
// It drives synthetic packet streams straight through a controller —
// no GPUs involved — showing how Stitching merges partly-filled flits,
// how Flit Pooling waits for candidates, how Trimming cuts read
// responses, and how Sequencing lets PTW flits overtake data. Useful as
// a template for experimenting with new traffic-shaping policies.
package main

import (
	"fmt"

	"netcrafter/internal/core"
	"netcrafter/internal/flit"
	"netcrafter/internal/sim"
)

// drive pushes the given packets into a controller configured by cfg
// and returns the flits that came out on the inter-cluster wire. With
// burst set, all packets arrive in the same cycle (a queue snapshot);
// otherwise arrivals are spaced a few cycles apart.
func drive(cfg core.Config, pkts []*flit.Packet, burst bool) []*flit.Flit {
	eng := sim.NewEngine()
	pool := flit.NewPool()
	ctl := core.NewController("demo", 0, 1, cfg, pool)
	eng.Register("ctl", ctl)
	wire := &drain{q: ctl.Remote.Out}
	eng.Register("drain", wire)
	for _, p := range pkts {
		for _, f := range pool.Segment(nil, p, flit.DefaultFlitBytes) {
			ctl.Local.In.Push(f, eng.Now())
		}
		if !burst {
			eng.Run(3) // space arrivals a few cycles apart
		}
	}
	eng.Run(1000)
	return wire.out
}

// drain stands in for the inter-cluster link: it collects every flit
// the controller puts on the wire.
type drain struct {
	q   *sim.Queue[*flit.Flit]
	out []*flit.Flit
}

func (d *drain) Tick(now sim.Cycle) bool {
	n := len(d.out)
	for f, ok := d.q.Pop(now); ok; f, ok = d.q.Pop(now) {
		d.out = append(d.out, f)
	}
	return len(d.out) > n
}

func (d *drain) NextWake(sim.Cycle) sim.Cycle { return d.q.NextReady() }
func (d *drain) SetWaker(w *sim.Waker)        { d.q.SetWaker(w) }

var nextID uint64

func pkt(t flit.Type) *flit.Packet {
	nextID++
	return &flit.Packet{ID: nextID, Type: t, DstCluster: 1}
}

func main() {
	// 1. Stitching: two read responses and a write response. The two
	// 4-byte response tails and the 4-byte WriteRsp share flit slots.
	stream := []*flit.Packet{pkt(flit.ReadRsp), pkt(flit.ReadRsp), pkt(flit.WriteRsp)}
	plain := drive(core.Passthrough(), stream, false)

	nextID = 0
	cfg := core.Passthrough()
	cfg.EnableStitch = true
	cfg.PoolingCycles = 32
	cfg.SelectivePooling = true
	stitched := drive(cfg, []*flit.Packet{pkt(flit.ReadRsp), pkt(flit.ReadRsp), pkt(flit.WriteRsp)}, false)

	fmt.Printf("stitching: %d flits without NetCrafter, %d with (tails+ack merged)\n",
		len(plain), len(stitched))
	for _, f := range stitched {
		if f.IsStitched() {
			fmt.Printf("  stitched flit: parent %s carries %d extra item(s), %d/%d bytes used\n",
				f.Pkt.Type, len(f.Stitched), f.OccupiedBytes(), f.Size)
		}
	}

	// 2. Trimming: a read response whose request needed 8 bytes from
	// sector 0 shrinks from 5 flits to 2.
	nextID = 0
	rsp := pkt(flit.ReadRsp)
	rsp.TrimEligible = true
	rsp.SectorOffset = 0
	tcfg := core.Passthrough()
	tcfg.EnableTrim = true
	trimmed := drive(tcfg, []*flit.Packet{rsp}, false)
	fmt.Printf("trimming: 64B response needed only one sector -> %d flits on the wire (was 5)\n",
		len(trimmed))

	// 3. Sequencing: a PTW request entering behind a pile of data
	// flits overtakes them when PTW prioritization is on.
	ptwPos := func(seq core.SequencingMode) int {
		nextID = 0
		var burst []*flit.Packet
		// A realistic mix keeps every data partition of the cluster
		// queue busy; the PTW request arrives last.
		for i := 0; i < 4; i++ {
			burst = append(burst,
				pkt(flit.ReadRsp), pkt(flit.WriteReq),
				pkt(flit.ReadReq), pkt(flit.WriteRsp))
		}
		burst = append(burst, pkt(flit.PTReq))
		scfg := core.Passthrough()
		scfg.Sequencing = seq
		for i, f := range drive(scfg, burst, true) {
			if f.IsPTW() {
				return i + 1
			}
		}
		return -1
	}
	fmt.Printf("sequencing: PTW flit leaves at position %d without prioritization, %d with it\n",
		ptwPos(core.SeqOff), ptwPos(core.SeqPTW))
}
