package flit

import (
	"testing"
	"testing/quick"
)

func mkFlits(t Type, id uint64, dst ClusterID) []*Flit {
	p := &Packet{ID: id, Type: t, DstCluster: dst}
	return segment(p, 16)
}

// TestStitchReadRspTails reproduces the paper's motivating scenario
// (Fig 11b, first case): the tails of two back-to-back read responses
// stitch together, with the second paying ID+Size metadata.
func TestStitchReadRspTails(t *testing.T) {
	a := mkFlits(ReadRsp, 1, 1)
	b := mkFlits(ReadRsp, 2, 1)
	parent, cand := a[4], b[4] // both: 4 used, 12 empty
	if !CanStitch(parent, cand) {
		t.Fatal("cannot stitch two ReadRsp tails")
	}
	Stitch(parent, cand)
	if !parent.IsStitched() {
		t.Fatal("parent not marked stitched")
	}
	it := parent.Stitched[0]
	if !it.Partial {
		t.Fatal("tail of a 5-flit packet must be a partial item")
	}
	// 4 (parent) + 4 (cand) + 4 (meta) = 12 occupied, 4 empty left.
	if parent.OccupiedBytes() != 12 || parent.EmptyBytes() != 4 {
		t.Fatalf("occupied=%d empty=%d, want 12/4", parent.OccupiedBytes(), parent.EmptyBytes())
	}
}

// TestStitchWholePacketNoMeta: a complete single-flit packet (e.g.
// WriteRsp, 4 bytes) stitches raw into a ReadRsp tail.
func TestStitchWholePacketNoMeta(t *testing.T) {
	parent := mkFlits(ReadRsp, 1, 0)[4] // 12 empty
	cand := mkFlits(WriteRsp, 2, 0)[0]  // whole packet, 4 used
	if !cand.IsWholePacket() {
		t.Fatal("single-flit WriteRsp not recognized as whole packet")
	}
	if !CanStitch(parent, cand) {
		t.Fatal("cannot stitch whole WriteRsp into ReadRsp tail")
	}
	Stitch(parent, cand)
	if parent.Stitched[0].Partial {
		t.Fatal("whole packet stitched as partial")
	}
	if parent.OccupiedBytes() != 8 { // 4 + 4, no meta
		t.Fatalf("occupied=%d want 8", parent.OccupiedBytes())
	}
}

func TestStitchMultipleCandidates(t *testing.T) {
	parent := mkFlits(ReadRsp, 1, 0)[4] // 12 empty
	c1 := mkFlits(WriteRsp, 2, 0)[0]    // 4 bytes raw
	c2 := mkFlits(WriteRsp, 3, 0)[0]    // 4 bytes raw
	c3 := mkFlits(WriteRsp, 4, 0)[0]    // 4 bytes raw
	for _, c := range []*Flit{c1, c2, c3} {
		if !CanStitch(parent, c) {
			t.Fatalf("stitch of %v refused with %d empty", c, parent.EmptyBytes())
		}
		Stitch(parent, c)
	}
	if parent.EmptyBytes() != 0 {
		t.Fatalf("after 3 stitches empty=%d want 0", parent.EmptyBytes())
	}
	c4 := mkFlits(WriteRsp, 5, 0)[0]
	if CanStitch(parent, c4) {
		t.Fatal("stitched into a full flit")
	}
}

func TestCanStitchRejectsDifferentDestination(t *testing.T) {
	parent := mkFlits(ReadRsp, 1, 0)[4]
	cand := mkFlits(WriteRsp, 2, 1)[0]
	if CanStitch(parent, cand) {
		t.Fatal("stitched flits bound for different clusters")
	}
}

func TestCanStitchRejectsOversizedCandidate(t *testing.T) {
	parent := mkFlits(ReadRsp, 1, 0)[4] // 12 empty
	cand := mkFlits(ReadReq, 2, 0)[0]   // 12 used, whole packet -> fits exactly
	if !CanStitch(parent, cand) {
		t.Fatal("12-byte whole packet should fit 12 empty bytes")
	}
	// A full payload flit (16 used) never fits.
	full := mkFlits(ReadRsp, 3, 0)[1]
	if CanStitch(parent, full) {
		t.Fatal("stitched a full 16-byte flit")
	}
}

func TestCanStitchRejectsStitchedCandidate(t *testing.T) {
	parent := mkFlits(ReadRsp, 1, 0)[4]
	cand := mkFlits(WriteRsp, 2, 0)[0]
	Stitch(cand, mkFlits(WriteRsp, 3, 0)[0]) // cand now carries content
	if CanStitch(parent, cand) {
		t.Fatal("accepted an already-stitched candidate")
	}
	if CanStitch(parent, parent) {
		t.Fatal("accepted self-stitch")
	}
}

func TestStitchPanicsWhenIncompatible(t *testing.T) {
	parent := mkFlits(ReadRsp, 1, 0)[4]
	cand := mkFlits(WriteRsp, 2, 1)[0]
	defer func() {
		if recover() == nil {
			t.Fatal("Stitch on incompatible flits did not panic")
		}
	}()
	Stitch(parent, cand)
}

func TestUnstitchRoundTrip(t *testing.T) {
	parent := mkFlits(ReadRsp, 1, 0)[4]
	tail := mkFlits(ReadRsp, 2, 0)[4]
	whole := mkFlits(WriteRsp, 3, 0)[0]
	Stitch(parent, tail)
	Stitch(parent, whole)
	out := NewPool().Unstitch(nil, parent)
	if len(out) != 2 {
		t.Fatalf("unstitched %d items, want 2", len(out))
	}
	if parent.IsStitched() {
		t.Fatal("parent still stitched after Unstitch")
	}
	if out[0].Pkt.ID != 2 || out[0].Used != 4 || out[0].Seq != 4 || !out[0].Last {
		t.Fatalf("first unstitched item wrong: %+v", out[0])
	}
	if out[1].Pkt.ID != 3 || !out[1].IsWholePacket() {
		t.Fatalf("second unstitched item wrong: %+v", out[1])
	}
	if NewPool().Unstitch(nil, parent) != nil {
		t.Fatal("Unstitch on plain flit returned items")
	}
}

// Property: stitching then unstitching conserves (packet, seq, used)
// triples and never overfills the parent slot.
func TestStitchConservationProperty(t *testing.T) {
	f := func(types []uint8) bool {
		parent := mkFlits(ReadRsp, 1000, 0)[4]
		var want []StitchItem
		id := uint64(0)
		for _, tb := range types {
			typ := Type(tb % uint8(NumTypes))
			id++
			cands := mkFlits(typ, id, 0)
			cand := cands[len(cands)-1]
			if CanStitch(parent, cand) {
				Stitch(parent, cand)
				want = append(want, StitchItem{Pkt: cand.Pkt, Seq: cand.Seq, Used: cand.Used})
			}
			if parent.OccupiedBytes() > parent.Size {
				return false
			}
		}
		out := NewPool().Unstitch(nil, parent)
		if len(out) != len(want) {
			return false
		}
		for i, o := range out {
			if o.Pkt != want[i].Pkt || o.Seq != want[i].Seq || o.Used != want[i].Used {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOccupancyClasses(t *testing.T) {
	rsp := mkFlits(ReadRsp, 1, 0)
	if Occupancy(rsp[0]) != OccFull {
		t.Errorf("full payload flit classed %v", Occupancy(rsp[0]))
	}
	if Occupancy(rsp[4]) != OccPad75 { // 12/16 padded
		t.Errorf("ReadRsp tail classed %v, want pad75", Occupancy(rsp[4]))
	}
	req := mkFlits(ReadReq, 2, 0)
	if Occupancy(req[0]) != OccPad25 { // 4/16 padded
		t.Errorf("ReadReq flit classed %v, want pad25", Occupancy(req[0]))
	}
	for _, c := range []OccupancyClass{OccFull, OccPad25, OccPad75, OccOther} {
		if c.String() == "" {
			t.Error("empty occupancy class name")
		}
	}
}

func TestStitchedFlitOccupancyImproves(t *testing.T) {
	parent := mkFlits(ReadRsp, 1, 0)[4]
	before := parent.EmptyBytes()
	Stitch(parent, mkFlits(WriteRsp, 2, 0)[0])
	if parent.EmptyBytes() >= before {
		t.Fatal("stitching did not reduce empty bytes")
	}
}

func TestOccupancy8ByteFlits(t *testing.T) {
	p := &Packet{Type: ReadRsp} // 68 bytes -> 9 flits of 8B, tail 4 used
	fl := segment(p, 8)
	if len(fl) != 9 {
		t.Fatalf("8B segmentation: %d flits", len(fl))
	}
	if Occupancy(fl[0]) != OccFull {
		t.Fatalf("full 8B flit classed %v", Occupancy(fl[0]))
	}
	// Tail: 4 of 8 used = 50% padded -> pad25 bucket (nearest of the
	// paper's categories).
	if got := Occupancy(fl[8]); got != OccPad25 {
		t.Fatalf("8B tail classed %v", got)
	}
}

func TestTable1At8Bytes(t *testing.T) {
	rows := Table1(8)
	for _, r := range rows {
		if r.BytesOccupied != r.FlitsOccupied*8 {
			t.Fatalf("%s: occupied %d != flits*8", r.Type, r.BytesOccupied)
		}
		if r.BytesPadded >= 8 {
			t.Fatalf("%s: %d padded bytes on 8B flits", r.Type, r.BytesPadded)
		}
	}
}
