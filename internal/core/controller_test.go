package core

import (
	"testing"

	"netcrafter/internal/flit"
	"netcrafter/internal/sim"
)

// harness wires a controller between an injector (pushing into
// Local.In) and a collector popping Remote.Out, plus the reverse path.
// The harness itself is the collector's ticker.
type harness struct {
	e    *sim.Engine
	pool *flit.Pool // the controller's pool
	ctl  *Controller
	out  []*flit.Flit // flits ejected onto the inter-cluster wire
	back []*flit.Flit // flits forwarded toward the local cluster
}

func newHarness(cfg Config) *harness {
	pool := flit.NewPool()
	h := &harness{
		e:    sim.NewEngine(),
		pool: pool,
		ctl:  NewController("ctl", 0, 1, cfg, pool),
	}
	h.e.Register("ctl", h.ctl)
	h.e.Register("drain", h)
	return h
}

// Tick collects every flit the controller put on either output.
func (h *harness) Tick(now sim.Cycle) bool {
	busy := false
	for {
		f, ok := h.ctl.Remote.Out.Pop(now)
		if !ok {
			break
		}
		h.out = append(h.out, f)
		busy = true
	}
	for {
		f, ok := h.ctl.Local.Out.Pop(now)
		if !ok {
			break
		}
		h.back = append(h.back, f)
		busy = true
	}
	return busy
}

func (h *harness) NextWake(sim.Cycle) sim.Cycle {
	return min(h.ctl.Remote.Out.NextReady(), h.ctl.Local.Out.NextReady())
}

func (h *harness) SetWaker(w *sim.Waker) {
	h.ctl.Remote.Out.SetWaker(w)
	h.ctl.Local.Out.SetWaker(w)
}

func (h *harness) inject(fs ...*flit.Flit) {
	for _, f := range fs {
		if !h.ctl.Local.In.Push(f, h.e.Now()) {
			panic("inject: local in full")
		}
	}
}

func (h *harness) run(cycles sim.Cycle) { h.e.Run(cycles) }

var nextID uint64

func pkt(t flit.Type, dst flit.ClusterID) *flit.Packet {
	nextID++
	return &flit.Packet{ID: nextID, Type: t, SrcCluster: 0, DstCluster: dst}
}

// segment splits p into flits issued by a pool of their own, as traffic
// from another shard is: the controller's pool does not take them back.
func segment(p *flit.Packet, flitBytes int) []*flit.Flit {
	return flit.NewPool().Segment(nil, p, flitBytes)
}

func flitsOf(t flit.Type, dst flit.ClusterID) []*flit.Flit {
	return segment(pkt(t, dst), 16)
}

func TestPassthroughFIFO(t *testing.T) {
	h := newHarness(Passthrough())
	fs := flitsOf(flit.ReadRsp, 1)
	h.inject(fs...)
	h.run(50)
	if len(h.out) != 5 {
		t.Fatalf("ejected %d flits, want 5", len(h.out))
	}
	for i, f := range h.out {
		if f.Seq != i || f.IsStitched() {
			t.Fatalf("flit %d out of order or modified: %v", i, f)
		}
	}
	if h.ctl.Net.FlitsTotal.Value() != 5 {
		t.Fatalf("stats counted %d flits", h.ctl.Net.FlitsTotal.Value())
	}
}

func TestStitchTwoReadRspTails(t *testing.T) {
	cfg := Passthrough()
	cfg.EnableStitch = true
	h := newHarness(cfg)
	h.inject(flitsOf(flit.ReadRsp, 1)...)
	h.inject(flitsOf(flit.ReadRsp, 1)...)
	h.run(100)
	// 10 flits in; the two 4-byte tails stitch into one -> 9 out.
	if len(h.out) != 9 {
		t.Fatalf("ejected %d flits, want 9", len(h.out))
	}
	if h.ctl.Net.FlitsStitched.Value() != 1 || h.ctl.Net.ItemsStitched.Value() != 1 {
		t.Fatalf("stitch stats: flits=%d items=%d",
			h.ctl.Net.FlitsStitched.Value(), h.ctl.Net.ItemsStitched.Value())
	}
	var st *flit.Flit
	for _, f := range h.out {
		if f.IsStitched() {
			st = f
		}
	}
	if st == nil || !st.Stitched[0].Partial {
		t.Fatalf("stitched flit missing or not partial: %v", st)
	}
}

func TestStitchRespectsDestination(t *testing.T) {
	cfg := Passthrough()
	cfg.EnableStitch = true
	h := newHarness(cfg)
	h.inject(flitsOf(flit.ReadRsp, 1)...)
	h.inject(flitsOf(flit.ReadRsp, 2)...) // different destination cluster
	h.run(100)
	if len(h.out) != 10 {
		t.Fatalf("ejected %d flits, want 10 (no cross-destination stitch)", len(h.out))
	}
}

func TestUnstitchOnIngress(t *testing.T) {
	h := newHarness(Passthrough())
	parent := flitsOf(flit.ReadRsp, 1)[4]
	cand := flitsOf(flit.WriteRsp, 1)[0]
	flit.Stitch(parent, cand)
	h.ctl.Remote.In.Push(parent, 0)
	h.run(20)
	if len(h.back) != 2 {
		t.Fatalf("forwarded %d flits after unstitch, want 2", len(h.back))
	}
	for _, f := range h.back {
		if f.IsStitched() {
			t.Fatal("stitched content leaked past ingress unstitcher")
		}
	}
}

func TestTrimEngineCutsResponse(t *testing.T) {
	cfg := Passthrough()
	cfg.EnableTrim = true
	h := newHarness(cfg)
	p := pkt(flit.ReadRsp, 1)
	p.TrimEligible = true
	p.SectorOffset = 0
	id := p.ID
	h.inject(segment(p, 16)...)
	h.run(100)
	// 68B response trims to 20B -> 2 flits instead of 5.
	if len(h.out) != 2 {
		t.Fatalf("ejected %d flits, want 2 after trimming", len(h.out))
	}
	// The trimmed train carries a copy of the packet; the trim engine
	// releases the original once it has absorbed every original flit.
	for _, f := range h.out {
		if cp := f.Pkt; cp == p || cp.ID != id || !cp.Trimmed {
			t.Fatalf("trimmed flit carries %v, want a trimmed copy of #%d", cp, id)
		}
	}
	if h.ctl.Net.FlitsTrimmed.Value() != 3 || h.ctl.Net.PacketsTrimmed.Value() != 1 {
		t.Fatalf("trim stats: flits=%d pkts=%d",
			h.ctl.Net.FlitsTrimmed.Value(), h.ctl.Net.PacketsTrimmed.Value())
	}
}

func TestTrimWaitsForNeededSector(t *testing.T) {
	cfg := Passthrough()
	cfg.EnableTrim = true
	h := newHarness(cfg)
	p := pkt(flit.ReadRsp, 1)
	p.TrimEligible = true
	p.SectorOffset = 3 // last sector: release only after flit 4 arrives
	fs := segment(p, 16)
	// Inject only the first three flits; the trimmed train must not
	// be released yet.
	h.inject(fs[0], fs[1], fs[2])
	h.run(50)
	if len(h.out) != 0 {
		t.Fatalf("trimmed train released before sector arrived: %d flits", len(h.out))
	}
	h.inject(fs[3], fs[4])
	h.run(50)
	if len(h.out) != 2 {
		t.Fatalf("ejected %d flits, want 2", len(h.out))
	}
}

func TestTrimDisabledPassesFullLine(t *testing.T) {
	h := newHarness(Passthrough())
	p := pkt(flit.ReadRsp, 1)
	p.TrimEligible = true
	h.inject(segment(p, 16)...)
	h.run(100)
	if len(h.out) != 5 {
		t.Fatalf("trim ran while disabled: %d flits", len(h.out))
	}
	if p.Trimmed {
		t.Fatal("packet trimmed while trim disabled")
	}
}

func TestSequencingPTWFirst(t *testing.T) {
	cfg := Passthrough()
	cfg.Sequencing = SeqPTW
	h := newHarness(cfg)
	// Enqueue a pile of data flits, then one PTW flit.
	for i := 0; i < 4; i++ {
		h.inject(flitsOf(flit.ReadRsp, 1)...)
	}
	h.inject(flitsOf(flit.PTReq, 1)...)
	h.run(200)
	if len(h.out) != 21 {
		t.Fatalf("ejected %d flits, want 21", len(h.out))
	}
	// The PTW flit entered last but must not leave last: with 20 data
	// flits queued ahead it must appear well before the tail.
	pos := -1
	for i, f := range h.out {
		if f.IsPTW() {
			pos = i
		}
	}
	if pos < 0 || pos > 10 {
		t.Fatalf("PTW flit ejected at position %d of 21; sequencing ineffective", pos)
	}
}

func TestNoSequencingKeepsArrivalBias(t *testing.T) {
	h := newHarness(Passthrough())
	for i := 0; i < 4; i++ {
		h.inject(flitsOf(flit.ReadRsp, 1)...)
	}
	h.inject(flitsOf(flit.PTReq, 1)...)
	h.run(200)
	pos := -1
	for i, f := range h.out {
		if f.IsPTW() {
			pos = i
		}
	}
	// Round-robin across partitions still lets the PTW flit jump some
	// of the data queue, but it should leave later than under SeqPTW.
	if pos < 1 {
		t.Fatalf("PTW flit first out even without sequencing (pos=%d)", pos)
	}
}

// backgroundFlits returns full (un-stitchable, un-poolable) WriteReq
// payload flits that keep the controller busy so pooling can engage.
func backgroundFlits(n int) []*flit.Flit {
	var out []*flit.Flit
	for i := 0; i < n; i++ {
		out = append(out, segment(pkt(flit.WriteReq, 1), 16)[:4]...)
	}
	return out
}

func TestFlitPoolingImprovesStitching(t *testing.T) {
	run := func(pool sim.Cycle) (stitched int64, flits int64) {
		cfg := Passthrough()
		cfg.EnableStitch = true
		cfg.PoolingCycles = pool
		h := newHarness(cfg)
		// The first response's tail leaves before the second response
		// arrives — unless pooling holds it (background traffic keeps
		// the link busy meanwhile).
		h.inject(flitsOf(flit.ReadRsp, 1)...)
		h.inject(backgroundFlits(6)...)
		h.run(10)
		h.inject(flitsOf(flit.ReadRsp, 1)...)
		h.run(400)
		return h.ctl.Net.FlitsStitched.Value(), h.ctl.Net.FlitsTotal.Value()
	}
	s0, f0 := run(0)
	s32, f32 := run(32)
	if s0 != 0 {
		t.Fatalf("unexpected stitch without pooling (%d)", s0)
	}
	if s32 != 1 {
		t.Fatalf("pooling did not enable the stitch (stitched=%d)", s32)
	}
	if f32 >= f0 {
		t.Fatalf("pooling did not reduce flits: %d vs %d", f32, f0)
	}
}

func TestPoolingTimerExpiresAndEjects(t *testing.T) {
	cfg := Passthrough()
	cfg.EnableStitch = true
	cfg.PoolingCycles = 16
	h := newHarness(cfg)
	h.inject(flitsOf(flit.ReadRsp, 1)...) // tail pools, finds nothing
	h.inject(backgroundFlits(4)...)
	h.run(400)
	if len(h.out) != 5+16 {
		t.Fatalf("pooled flit never ejected: %d of %d", len(h.out), 5+16)
	}
	if h.ctl.Net.PooledFlits.Value() == 0 {
		t.Fatal("pooling never engaged")
	}
}

func TestSelectivePoolingExemptsPTW(t *testing.T) {
	// Pooling is work-conserving, so give the controller background
	// data traffic; the PTW flit (12 used, 4 empty, no 4-byte
	// candidates around) pools under plain pooling but not under
	// selective pooling.
	eject := func(selective bool) sim.Cycle {
		cfg := Passthrough()
		cfg.EnableStitch = true
		cfg.PoolingCycles = 64
		cfg.SelectivePooling = selective
		h := newHarness(cfg)
		h.inject(flitsOf(flit.PTReq, 1)...)
		for i := 0; i < 8; i++ {
			h.inject(segment(pkt(flit.WriteReq, 1), 16)[:4]...) // full flits only
		}
		var ptwAt sim.Cycle = -1
		_, err := h.e.RunUntil(func() bool {
			for _, f := range h.out {
				if f.IsPTW() {
					ptwAt = h.e.Now()
					return true
				}
			}
			return false
		}, 1000)
		if err != nil {
			t.Fatal(err)
		}
		return ptwAt
	}
	plain, selective := eject(false), eject(true)
	if selective >= plain {
		t.Fatalf("selective pooling did not speed up PTW ejection: %d vs %d", selective, plain)
	}
	if plain-selective < 32 {
		t.Fatalf("PTW pooling penalty only %d cycles; expected ~64", plain-selective)
	}
}

func TestPoolingIsWorkConserving(t *testing.T) {
	// A lone flit with empty bytes and no other traffic must eject
	// immediately rather than wait a pooling window on an idle link.
	cfg := Passthrough()
	cfg.EnableStitch = true
	cfg.PoolingCycles = 128
	h := newHarness(cfg)
	h.inject(flitsOf(flit.ReadReq, 1)...)
	end, err := h.e.RunUntil(func() bool { return len(h.out) == 1 }, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if end > 20 {
		t.Fatalf("lone flit waited %d cycles; pooling not work-conserving", end)
	}
	if h.ctl.Net.PooledFlits.Value() != 0 {
		t.Fatal("lone flit was pooled")
	}
}

func TestSeqDataEqualPrioritizesData(t *testing.T) {
	cfg := Passthrough()
	cfg.Sequencing = SeqDataEqual
	h := newHarness(cfg)
	h.inject(flitsOf(flit.PTReq, 1)...)
	h.inject(flitsOf(flit.ReadRsp, 1)...)
	h.run(200)
	if len(h.out) != 6 {
		t.Fatalf("ejected %d flits, want 6", len(h.out))
	}
	// The PTW flit arrived first, but one data flit (one token) must
	// overtake it.
	if h.out[0].IsPTW() {
		t.Fatal("data-equal mode did not prioritize a data flit")
	}
}

func TestStitchScopeSamePartition(t *testing.T) {
	run := func(scope StitchScope) int64 {
		cfg := Passthrough()
		cfg.EnableStitch = true
		cfg.StitchScope = scope
		h := newHarness(cfg)
		// A ReadRsp tail (12 empty) and a WriteRsp (different
		// partition, 4 bytes) can stitch only across partitions.
		h.inject(flitsOf(flit.ReadRsp, 1)...)
		h.inject(flitsOf(flit.WriteRsp, 1)...)
		h.run(200)
		return h.ctl.Net.ItemsStitched.Value()
	}
	if run(ScopeAllPartitions) == 0 {
		t.Fatal("cross-partition stitch failed in AllPartitions scope")
	}
	if run(ScopeSamePartition) != 0 {
		t.Fatal("cross-partition stitch happened in SamePartition scope")
	}
}

func TestConservationThroughController(t *testing.T) {
	cfg := Baseline()
	h := newHarness(cfg)
	types := []flit.Type{flit.ReadReq, flit.ReadRsp, flit.WriteReq, flit.WriteRsp, flit.PTReq, flit.PTRsp}
	rng := sim.NewRand(42)
	injected := map[uint64]int{} // packet id -> required bytes
	for i := 0; i < 100; i++ {
		p := pkt(types[rng.Intn(len(types))], 1)
		injected[p.ID] = p.RequiredBytes()
		h.inject(segment(p, 16)...)
		h.run(3)
	}
	h.run(2000)
	// Account every byte leaving on the wire, parents and stitched.
	gotBytes := map[uint64]int{}
	for _, f := range h.out {
		gotBytes[f.Pkt.ID] += f.Used
		for _, it := range f.Stitched {
			gotBytes[it.Pkt.ID] += it.Used
		}
	}
	for id, want := range injected {
		if gotBytes[id] != want {
			t.Fatalf("packet %d: %d bytes on wire, want %d", id, gotBytes[id], want)
		}
	}
	if h.ctl.QueuedFlits() != 0 {
		t.Fatalf("%d flits stranded in cluster queue", h.ctl.QueuedFlits())
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.CQEntries != 1024 || c.EjectRate != 1 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if Baseline().PoolingCycles != 32 || !Baseline().SelectivePooling {
		t.Fatal("Baseline() does not match the paper's final design")
	}
	for _, m := range []SequencingMode{SeqOff, SeqPTW, SeqDataEqual, SequencingMode(9)} {
		if m.String() == "" {
			t.Fatal("empty sequencing mode name")
		}
	}
}

func TestTrimWritesExtension(t *testing.T) {
	mk := func(enable bool) int {
		cfg := Passthrough()
		cfg.EnableTrim = true
		cfg.TrimWrites = enable
		h := newHarness(cfg)
		p := pkt(flit.WriteReq, 1)
		p.TrimEligible = true
		p.SectorOffset = 1
		h.inject(segment(p, 16)...)
		h.run(200)
		return len(h.out)
	}
	if got := mk(false); got != 5 {
		t.Fatalf("write trimmed while extension disabled: %d flits", got)
	}
	// 12B header + 16B sector = 28 bytes -> 2 flits.
	if got := mk(true); got != 2 {
		t.Fatalf("write-mask extension produced %d flits, want 2", got)
	}
}

func TestTrimWritesIneligibleFullLinePasses(t *testing.T) {
	cfg := Passthrough()
	cfg.EnableTrim = true
	cfg.TrimWrites = true
	h := newHarness(cfg)
	p := pkt(flit.WriteReq, 1) // full-line store: not eligible
	h.inject(segment(p, 16)...)
	h.run(200)
	if len(h.out) != 5 {
		t.Fatalf("full-line write was trimmed: %d flits", len(h.out))
	}
}
