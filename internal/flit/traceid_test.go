package flit

import (
	"io"
	"testing"

	"netcrafter/internal/obs"
	"netcrafter/internal/txn"
)

// TestTraceIDSurvivesStitchRoundTrip drives a packet's flits through
// segmentation, stitching into a parent, un-stitching at the far side
// and reassembly, checking packet identity is preserved the whole way:
// every flit and stitch item references the originating Packet, so the
// packet ID a span carries as its trace id never changes.
func TestTraceIDSurvivesStitchRoundTrip(t *testing.T) {
	const flitBytes = 32

	parentPkt := &Packet{ID: 100, Type: ReadReq, DstCluster: 1}
	parent := segment(parentPkt, flitBytes)[0]

	// A whole-packet candidate (WriteRsp fits one flit) and a partial
	// candidate (the 4-byte tail flit of a 68-byte ReadRsp).
	wholePkt := &Packet{ID: 200, Type: WriteRsp, DstCluster: 1}
	whole := segment(wholePkt, flitBytes)[0]

	partialPkt := &Packet{ID: 300, Type: ReadRsp, DstCluster: 1}
	partialFlits := segment(partialPkt, flitBytes)
	tail := partialFlits[len(partialFlits)-1]

	for _, cand := range []*Flit{whole, tail} {
		if !CanStitch(parent, cand) {
			t.Fatalf("cannot stitch %v into %v", cand.Pkt, parent.Pkt)
		}
		Stitch(parent, cand)
	}
	if len(parent.Stitched) != 2 {
		t.Fatalf("stitched %d items, want 2", len(parent.Stitched))
	}
	if parent.Stitched[0].Pkt != wholePkt || parent.Stitched[1].Pkt != partialPkt {
		t.Fatalf("stitch items lost packet identity: %+v", parent.Stitched)
	}

	out := NewPool().Unstitch(nil, parent)
	if len(out) != 2 {
		t.Fatalf("unstitched %d flits, want 2", len(out))
	}
	if out[0].Pkt != wholePkt || out[0].Pkt.ID != 200 {
		t.Fatalf("whole candidate lost its packet: %+v", out[0].Pkt)
	}
	if out[1].Pkt != partialPkt || out[1].Pkt.ID != 300 {
		t.Fatalf("partial candidate lost its packet: %+v", out[1].Pkt)
	}
	if parent.Pkt != parentPkt || parent.Pkt.ID != 100 {
		t.Fatalf("parent packet changed: %+v", parent.Pkt)
	}

	// Reassembling the partial packet from its original head flits plus
	// the un-stitched tail yields the same Packet, ID intact.
	var got *Packet
	for _, f := range append(partialFlits[:len(partialFlits)-1], out[1]) {
		for _, p := range arrive(f) {
			got = p
		}
	}
	if got != partialPkt || got.ID != 300 {
		t.Fatalf("reassembly lost packet identity: %+v", got)
	}
}

// TestStitchRoundTripPreservesTrace pins the structural-propagation
// contract for the whole trace identity of a packet — the packet
// itself, its *obs.Span (whose trace id is the packet ID), and the
// owning *txn.Transaction: stitching two halves into a parent flit and
// un-stitching them at the far side must hand back the exact same
// pointers for each half. Unstitch rebuilds Flit shells but must never
// rebuild (or copy) the Packet they reference.
func TestStitchRoundTripPreservesTrace(t *testing.T) {
	const flitBytes = 32
	rec := obs.NewSpanRecorder(io.Discard)
	tb := txn.NewTable("test")

	parentPkt := &Packet{ID: 1, Type: ReadReq, DstCluster: 2}
	parent := segment(parentPkt, flitBytes)[0]

	mk := func(id uint64, typ Type) *Packet {
		p := &Packet{ID: id, Type: typ, DstCluster: 2}
		p.Span = rec.Start(p.ID, p.ID, typ.String(), 0, 1, 0)
		p.Txn = tb.Acquire(txn.KindRead, 0)
		return p
	}
	whole := mk(200, WriteRsp)
	partial := mk(300, ReadRsp)

	cands := []*Flit{segment(whole, flitBytes)[0]}
	pf := segment(partial, flitBytes)
	cands = append(cands, pf[len(pf)-1])
	for _, cand := range cands {
		if !CanStitch(parent, cand) {
			t.Fatalf("cannot stitch %v", cand.Pkt)
		}
		Stitch(parent, cand)
	}

	out := NewPool().Unstitch(nil, parent)
	if len(out) != 2 {
		t.Fatalf("unstitched %d flits, want 2", len(out))
	}
	for i, want := range []*Packet{whole, partial} {
		got := out[i].Pkt
		if got != want {
			t.Fatalf("unstitch rebuilt packet %d: %p != %p", i, got, want)
		}
		if got.Span != want.Span || got.Span == nil {
			t.Errorf("half %d lost its Span pointer", i)
		} else if got.Span.TraceID != got.ID {
			t.Errorf("half %d span trace id %d, want its packet ID %d", i, got.Span.TraceID, got.ID)
		}
		if got.Txn != want.Txn || got.Txn == nil {
			t.Errorf("half %d lost its Transaction pointer", i)
		}
	}
}
