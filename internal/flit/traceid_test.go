package flit

import (
	"io"
	"testing"

	"netcrafter/internal/obs"
	"netcrafter/internal/txn"
)

// TestTraceIDSurvivesStitchRoundTrip drives a packet's flits through
// segmentation, stitching into a parent, un-stitching at the far side
// and reassembly, checking the trace identity is preserved the whole
// way: every flit and stitch item references the originating Packet,
// so the TraceID set at creation never changes.
func TestTraceIDSurvivesStitchRoundTrip(t *testing.T) {
	const flitBytes = 32

	parentPkt := &Packet{ID: 100, TraceID: 100, Type: ReadReq, DstCluster: 1}
	parent := segment(parentPkt, flitBytes)[0]

	// A whole-packet candidate (WriteRsp fits one flit) and a partial
	// candidate (the 4-byte tail flit of a 68-byte ReadRsp).
	wholePkt := &Packet{ID: 200, TraceID: 42, Type: WriteRsp, DstCluster: 1}
	whole := segment(wholePkt, flitBytes)[0]

	partialPkt := &Packet{ID: 300, TraceID: 7, Type: ReadRsp, DstCluster: 1}
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
	for _, it := range parent.Stitched {
		if it.Pkt.TraceID != it.Pkt.ID && it.Pkt != wholePkt && it.Pkt != partialPkt {
			t.Fatalf("stitch item lost packet identity: %+v", it)
		}
	}

	out := NewPool().Unstitch(nil, parent)
	if len(out) != 2 {
		t.Fatalf("unstitched %d flits, want 2", len(out))
	}
	if out[0].Pkt != wholePkt || out[0].Pkt.TraceID != 42 {
		t.Fatalf("whole candidate lost trace id: %+v", out[0].Pkt)
	}
	if out[1].Pkt != partialPkt || out[1].Pkt.TraceID != 7 {
		t.Fatalf("partial candidate lost trace id: %+v", out[1].Pkt)
	}
	if parent.Pkt.TraceID != 100 {
		t.Fatalf("parent trace id changed: %d", parent.Pkt.TraceID)
	}

	// Reassembling the partial packet from its original head flits plus
	// the un-stitched tail yields the same Packet, trace id intact.
	var got *Packet
	for _, f := range append(partialFlits[:len(partialFlits)-1], out[1]) {
		for _, p := range arrive(f) {
			got = p
		}
	}
	if got != partialPkt || got.TraceID != 7 {
		t.Fatalf("reassembly lost trace id: %+v", got)
	}
}

// TestStitchRoundTripPreservesTrace pins the structural-propagation
// contract for the whole trace identity of a packet — TraceID, the
// *obs.Span, and the owning *txn.Transaction: stitching two halves into
// a parent flit and un-stitching them at the far side must hand back
// the exact same pointers for each half. Unstitch rebuilds Flit shells
// but must never rebuild (or copy) the Packet they reference.
func TestStitchRoundTripPreservesTrace(t *testing.T) {
	const flitBytes = 32
	rec := obs.NewSpanRecorder(io.Discard)
	tb := txn.NewTable("test")

	parentPkt := &Packet{ID: 1, TraceID: 1, Type: ReadReq, DstCluster: 2}
	parent := segment(parentPkt, flitBytes)[0]

	mk := func(id uint64, typ Type) *Packet {
		tr := tb.Acquire(txn.KindRead, 0)
		p := &Packet{ID: id, TraceID: tr.TraceID, Type: typ, DstCluster: 2}
		p.Span = rec.Start(p.ID, p.TraceID, typ.String(), 0, 1, 0)
		p.Txn = tr
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
		if got.TraceID != want.Txn.TraceID {
			t.Errorf("half %d lost TraceID: %d", i, got.TraceID)
		}
		if got.Span != want.Span || got.Span == nil {
			t.Errorf("half %d lost its Span pointer", i)
		}
		if got.Txn != want.Txn || got.Txn == nil {
			t.Errorf("half %d lost its Transaction pointer", i)
		}
	}
}
