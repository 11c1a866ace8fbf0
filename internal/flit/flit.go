package flit

import (
	"fmt"

	"netcrafter/internal/sim"
)

// Flit is one flow-control unit on a link. A flit always occupies a full
// flit slot on the wire (Size bytes); Used of those bytes carry parent
// packet content and, after stitching, additional bytes carry items from
// other packets. The remainder is padding.
type Flit struct {
	Pkt  *Packet
	Seq  int // index of this flit within its packet, 0-based
	Used int // bytes of the parent packet carried by this flit
	Last bool
	Size int // flit slot size in bytes (16 by default)

	// Stitched holds the contents of other flits merged into this one
	// by the NetCrafter stitch engine.
	Stitched []StitchItem

	// CtlArrivedAt is when the flit entered a NetCrafter controller's
	// cluster queue (stats; set by the controller).
	CtlArrivedAt sim.Cycle

	pool     *Pool // issuer; a released flit goes back only to it
	released bool
}

func (f *Flit) check() {
	if f.released {
		panic("flit: released flit touched")
	}
}

// StitchItem is one candidate flit's content carried inside a parent
// flit. Partial items (a payload slice of a multi-flit packet, with no
// header of its own) pay StitchMetaBytes of ID+Size metadata on the
// wire; complete items (an entire single-flit packet, header included)
// are stitched raw.
type StitchItem struct {
	Pkt     *Packet
	Seq     int
	Used    int
	Last    bool
	Partial bool
}

// WireBytes returns the bytes the item consumes inside the parent flit.
func (it StitchItem) WireBytes() int {
	if it.Partial {
		return it.Used + StitchMetaBytes
	}
	return it.Used
}

// OccupiedBytes returns how many bytes of the flit slot carry useful
// content (parent bytes plus all stitched items with their metadata).
func (f *Flit) OccupiedBytes() int {
	n := f.Used
	for _, it := range f.Stitched {
		n += it.WireBytes()
	}
	return n
}

// EmptyBytes returns the padding bytes remaining in the flit slot.
func (f *Flit) EmptyBytes() int { return f.Size - f.OccupiedBytes() }

// IsStitched reports whether the flit carries stitched content (the
// repurposed type-field encoding would be set on the wire).
func (f *Flit) IsStitched() bool { return len(f.Stitched) > 0 }

// IsWholePacket reports whether this flit carries its entire parent
// packet (header and payload) — the precondition for stitching it into
// another flit without extra metadata.
func (f *Flit) IsWholePacket() bool {
	return f.Seq == 0 && f.Last
}

// IsPTW reports whether the flit belongs to page-table-walk traffic.
func (f *Flit) IsPTW() bool { return f.Pkt.Type.IsPTW() }

func (f *Flit) String() string {
	s := fmt.Sprintf("flit[%s %d/%d used=%d", f.Pkt.Type, f.Seq, f.Pkt.FlitCount(f.Size), f.Used)
	if len(f.Stitched) > 0 {
		s += fmt.Sprintf(" +%d stitched", len(f.Stitched))
	}
	return s + "]"
}

// TrimResponse applies the Trim Engine transformation to a read
// response: if the originating request needed at most one sector
// (TrimEligible) the payload is cut to that sector. It returns true if
// the packet was modified. Trimming is idempotent.
func TrimResponse(p *Packet) bool {
	if p.Type != ReadRsp || !p.TrimEligible || p.Trimmed {
		return false
	}
	p.Trimmed = true
	return true
}

// TrimWriteRequest applies the write-mask extension the paper sketches
// in its coherence discussion: a store that dirtied at most one sector
// ships only that sector (plus the mask implied by the trim bits)
// instead of the full line. Disabled in the paper's main design; see
// core.Config.TrimWrites.
func TrimWriteRequest(p *Packet) bool {
	if p.Type != WriteReq || !p.TrimEligible || p.Trimmed {
		return false
	}
	p.Trimmed = true
	return true
}
