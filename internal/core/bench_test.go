package core

import (
	"testing"

	"netcrafter/internal/flit"
	"netcrafter/internal/sim"
)

// controllerBatch is one op of BenchmarkController, in two waves, with
// every packet and flit issued by pl. The first carries a trim-eligible
// read response (5 flits trimmed to 2), a full read response and
// background write payload that keeps the scheduler busy, so the
// response's 4-byte tail is pooled. The second, arriving while the tail
// waits, carries another read response (whose tail stitches into the
// pooled one), a write response and a page-table request (stitch and
// PTW-sequencing candidates).
func controllerBatch(pl *flit.Pool) (first, second []*flit.Flit) {
	seg := func(t flit.Type, trim bool) []*flit.Flit {
		p := pl.NewPacket(*pkt(t, 1))
		p.TrimEligible = trim
		return pl.Segment(nil, p, 16)
	}
	first = seg(flit.ReadRsp, true)
	first = append(first, seg(flit.ReadRsp, false)...)
	for i := 0; i < 4; i++ {
		// Background payload: the first four flits of a write request;
		// the fifth goes straight back to the pool.
		w := seg(flit.WriteReq, false)
		pl.ReleaseFlit(w[4])
		first = append(first, w[:4]...)
	}
	second = seg(flit.ReadRsp, false)
	second = append(second, seg(flit.WriteRsp, false)...)
	second = append(second, seg(flit.PTReq, false)...)
	return first, second
}

// drainSink pops the controller's wire side and plays the requester:
// it reassembles what arrives and releases flits and completed packets
// to the pool without retaining them, so the benchmark measures the
// controller rather than the observer.
type drainSink struct {
	ctl  *Controller
	pool *flit.Pool
}

func (d drainSink) Tick(now sim.Cycle) bool {
	busy := false
	for {
		f, ok := d.ctl.Remote.Out.Pop(now)
		if !ok {
			return busy
		}
		d.arrive(f.Pkt, f.Used)
		for _, it := range f.Stitched {
			d.arrive(it.Pkt, it.Used)
		}
		d.pool.ReleaseFlit(f)
		busy = true
	}
}

func (d drainSink) NextWake(sim.Cycle) sim.Cycle { return d.ctl.Remote.Out.NextReady() }
func (d drainSink) SetWaker(w *sim.Waker)        { d.ctl.Remote.Out.SetWaker(w) }

func (d drainSink) arrive(p *flit.Packet, used int) {
	if p.Arrive(used) {
		d.pool.ReleasePacket(p)
	}
}

// BenchmarkController drives one controller with the paper's final
// configuration (stitching, 32-cycle selective pooling, trimming, PTW
// sequencing) and a flit pool through intake trim and egress
// stitch/pool/eject, one controllerBatch per op, run until the
// controller drains. Batches are built with the timer stopped, so
// allocs/op counts the controller's own allocations only.
func BenchmarkController(b *testing.B) {
	pl := flit.NewPool()
	ctl := NewController("nc", 0, 1, Baseline(), pl)
	e := sim.NewEngine()
	e.Register("nc", ctl)
	e.Register("drain", drainSink{ctl, pl})
	drained := func() bool {
		return ctl.Local.In.Len() == 0 && ctl.QueuedFlits() == 0 && ctl.Remote.Out.Len() == 0
	}
	const chunk = 256
	type batch struct{ first, second []*flit.Flit }
	batches := make([]batch, 0, chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%chunk == 0 {
			b.StopTimer()
			batches = batches[:0]
			for j := 0; j < chunk; j++ {
				first, second := controllerBatch(pl)
				batches = append(batches, batch{first, second})
			}
			b.StartTimer()
		}
		bt := batches[i%chunk]
		for _, f := range bt.first {
			ctl.Local.In.Push(f, e.Now())
		}
		e.Run(8)
		for _, f := range bt.second {
			ctl.Local.In.Push(f, e.Now())
		}
		if _, err := e.RunUntil(drained, e.Now()+10_000); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	n := ctl.Net
	if n.PacketsTrimmed.Value() < int64(b.N) || n.ItemsStitched.Value() == 0 || n.PooledFlits.Value() == 0 {
		b.Fatalf("batch missed a mechanism: trimmed=%d stitched=%d pooled=%d over %d ops",
			n.PacketsTrimmed.Value(), n.ItemsStitched.Value(), n.PooledFlits.Value(), b.N)
	}
	b.ReportMetric(float64(n.FlitsTotal.Value())/float64(b.N), "flits/op")
}
