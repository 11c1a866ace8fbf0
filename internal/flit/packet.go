// Package flit models the wire-level data units of the multi-GPU
// interconnect: PCIe-style packets, their segmentation into fixed-size
// flits, and the NetCrafter extensions — trimming state carried in
// re-purposed address bits, and stitched flits that pack the useful
// bytes of several packets into one flit slot.
//
// Sizes follow Table 1 of the paper: a packet is a header (12 bytes for
// request-side types carrying an address, 4 bytes for responses) plus a
// payload (64-byte cache line for ReadRsp/WriteReq, 8-byte physical
// address for PTRsp, none otherwise).
//
// In a cycle run every flit and packet is issued by, and released back
// to, its engine shard's Pool; see Pool for the ownership rules.
package flit

import (
	"fmt"

	"netcrafter/internal/obs"
	"netcrafter/internal/txn"
)

// Type identifies one of the six traffic categories of Table 1.
type Type uint8

const (
	ReadReq Type = iota
	ReadRsp
	WriteReq
	WriteRsp
	PTReq // page-table (PTW) read request
	PTRsp // page-table (PTW) read response
	numTypes
)

// NumTypes is the number of distinct packet types.
const NumTypes = int(numTypes)

// String returns the short name used in tables and stats.
func (t Type) String() string {
	switch t {
	case ReadReq:
		return "ReadReq"
	case ReadRsp:
		return "ReadRsp"
	case WriteReq:
		return "WriteReq"
	case WriteRsp:
		return "WriteRsp"
	case PTReq:
		return "PTReq"
	case PTRsp:
		return "PTRsp"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// IsPTW reports whether the type is page-table-walk related. PTW flits
// are latency-critical (Observation 3) and are sequenced ahead of data.
func (t Type) IsPTW() bool { return t == PTReq || t == PTRsp }

// IsResponse reports whether the type flows from the servicing GPU back
// to the requester.
func (t Type) IsResponse() bool { return t == ReadRsp || t == WriteRsp || t == PTRsp }

// Wire-format constants (bytes).
const (
	// LineBytes is the cache line size carried by read responses and
	// write requests.
	LineBytes = 64
	// SectorBytes is the trimming granularity: the portion of a line
	// kept when a wavefront needed at most this many bytes.
	SectorBytes = 16
	// SectorsPerLine is LineBytes/SectorBytes (the 2 trim offset bits).
	SectorsPerLine = LineBytes / SectorBytes
	// MetaHeaderBytes is the fixed metadata header present in every
	// packet (type, routing, ID tag).
	MetaHeaderBytes = 4
	// AddrBytes is the address field present in request-side headers.
	AddrBytes = 8
	// StitchMetaBytes is the ID+Size metadata prepended to a stitched
	// partial-payload item so the receiver can reassociate and unstitch
	// it (design assumption: 3-byte ID + 1-byte size).
	StitchMetaBytes = 4
	// DefaultFlitBytes is the baseline flit size.
	DefaultFlitBytes = 16
)

// DeviceID identifies a network endpoint (a GPU's RDMA engine).
type DeviceID int

// ClusterID identifies a GPU cluster (group joined by the
// higher-bandwidth intra-cluster network).
type ClusterID int

// Packet is one PCIe-style transaction-layer packet.
type Packet struct {
	ID   uint64
	Type Type
	Src  DeviceID
	Dst  DeviceID
	// SrcCluster/DstCluster are filled in by the topology when the
	// packet is injected; the NetCrafter controller keys its cluster
	// queue on DstCluster.
	SrcCluster ClusterID
	DstCluster ClusterID
	// Addr is the (physical) address a request refers to.
	Addr uint64

	// Trim state: three re-purposed unused address bits. On a ReadReq,
	// TrimEligible tells the servicing side the wavefront needs at most
	// one sector, located at SectorOffset. On the ReadRsp, Trimmed
	// records that the Trim Engine actually cut the payload to that
	// sector.
	TrimEligible bool
	SectorOffset uint8
	Trimmed      bool
	// TrimBytes is the trimmed payload size for this response; 0 means
	// the default SectorBytes. Granularities of 4 and 8 bytes are used
	// by the Fig-17 sensitivity study; the sector-cache baseline can
	// return multi-sector spans.
	TrimBytes int
	// SectorRequest marks a sector-cache-baseline read: the home GPU
	// returns exactly the requested sectors regardless of which network
	// the response traverses (this design carries a sector mask in the
	// request instead of the 3 trim bits).
	SectorRequest bool

	// RequiredBytesHint is the number of bytes of the cache line the
	// requesting wavefront actually needs (after coalescing); it drives
	// trim eligibility and the Fig-7 characterization.
	RequiredBytesHint int

	// TraceID links the packets of one logical transaction: a response
	// inherits the TraceID of the request it answers, so offline span
	// analysis can reassemble full round trips. It survives
	// segmentation, stitching and un-stitching because every flit and
	// stitch item references the originating Packet.
	TraceID uint64

	// Span, when non-nil, accumulates the packet's per-stage latency
	// breakdown. Components stamp stage transitions as the packet moves;
	// a nil Span (observability disabled) makes every stamp a free
	// no-op.
	Span *obs.Span

	// Txn is the memory transaction this packet moves: the requester
	// sets it on the request, and the home GPU copies it onto the
	// response, so completion needs no side lookup table and
	// TraceID/Span propagation is structural. The wire does not see it.
	Txn *txn.Transaction

	pool     *Pool // issuer; a released packet goes back only to it
	arrived  int   // bytes reassembled so far (Arrive)
	released bool
}

func (p *Packet) check() {
	if p.released {
		panic("flit: released packet touched")
	}
}

// Arrive accounts for used bytes of p reaching its destination, from
// one of its own flits or a stitched item, and reports whether every
// byte of p has now arrived.
func (p *Packet) Arrive(used int) bool {
	p.check()
	p.arrived += used
	total := p.RequiredBytes()
	if p.arrived > total {
		panic(fmt.Sprintf("flit: packet %v over-received: %d of %d bytes", p, p.arrived, total))
	}
	return p.arrived == total
}

// headerBytes returns the header size for a packet of type t. Requests
// carry the 4-byte metadata header plus an 8-byte address; responses
// carry only the metadata header (PTRsp's 8-byte translated address is
// its payload), matching the Bytes Required column of Table 1.
func headerBytes(t Type) int {
	if t.IsResponse() {
		return MetaHeaderBytes
	}
	return MetaHeaderBytes + AddrBytes
}

// basePayloadBytes returns the untrimmed payload size for a packet of
// type t.
func basePayloadBytes(t Type) int {
	switch t {
	case ReadRsp, WriteReq:
		return LineBytes
	case PTRsp:
		return AddrBytes
	default:
		return 0
	}
}

// HeaderBytes returns the header size for the packet.
func (p *Packet) HeaderBytes() int { return headerBytes(p.Type) }

// PayloadBytes returns the payload size, accounting for trimming.
func (p *Packet) PayloadBytes() int {
	if p.Trimmed && (p.Type == ReadRsp || p.Type == WriteReq) {
		if p.TrimBytes > 0 {
			return p.TrimBytes
		}
		return SectorBytes
	}
	return basePayloadBytes(p.Type)
}

// RequiredBytes is the total number of useful bytes the packet must
// move: header plus payload (the "Bytes Required" column of Table 1).
func (p *Packet) RequiredBytes() int { return p.HeaderBytes() + p.PayloadBytes() }

// FlitCount returns how many flits of the given size carry the packet.
func (p *Packet) FlitCount(flitBytes int) int {
	return (p.RequiredBytes() + flitBytes - 1) / flitBytes
}

// CrossesClusters reports whether the packet traverses the
// lower-bandwidth inter-GPU-cluster network.
func (p *Packet) CrossesClusters() bool { return p.SrcCluster != p.DstCluster }

// String implements fmt.Stringer for debugging.
func (p *Packet) String() string {
	return fmt.Sprintf("%s#%d %d->%d addr=%#x", p.Type, p.ID, p.Src, p.Dst, p.Addr)
}
