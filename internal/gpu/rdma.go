package gpu

import (
	"fmt"

	"netcrafter/internal/flit"
	"netcrafter/internal/network"
	"netcrafter/internal/obs"
	"netcrafter/internal/sim"
	"netcrafter/internal/stats"
	"netcrafter/internal/txn"
)

// Topology is what a GPU needs to know about the system it lives in.
// Package cluster implements it.
type Topology interface {
	// HomeGPU returns the GPU owning the physical address.
	HomeGPU(paddr uint64) int
	// DeviceOf returns the network endpoint of a GPU's RDMA engine.
	DeviceOf(gpu int) flit.DeviceID
	// ClusterOf returns the cluster a GPU belongs to.
	ClusterOf(gpu int) flit.ClusterID
}

// RDMAStats aggregates the remote-access picture of one GPU.
type RDMAStats struct {
	RemoteReads    stats.Counter
	RemoteWrites   stats.Counter
	RemotePTEReads stats.Counter
	ServedReads    stats.Counter // requests served for other GPUs
	ServedWrites   stats.Counter
	ServedPTEs     stats.Counter
	// Completed remote reads and their summed latency in cycles, split
	// by whether the request crossed clusters (Figs 5 and 15 report the
	// inter-cluster mean).
	InterClusterReads      stats.Counter
	InterClusterReadCycles stats.Counter
	IntraClusterReads      stats.Counter
	IntraClusterReadCycles stats.Counter
	// BytesNeeded classifies inter-cluster read requests by how many
	// bytes of the line the wavefront needed (Fig 7).
	BytesNeeded *stats.Histogram
}

// RDMA is the per-GPU remote direct memory access engine (Section 2.1):
// it packetizes remote memory transactions, segments packets into
// flits, reassembles arriving flits, and services requests that other
// GPUs address to this GPU's memory partition.
type RDMA struct {
	Name  string
	gpuID int
	dev   flit.DeviceID
	topo  Topology
	mem   *MemPartition
	// table supplies pooled transactions for the requests this engine
	// originates: posted remote writes and the home side of served
	// requests.
	table *txn.Table
	sched *sim.Scheduler
	// pool is the shard's flit and packet free list: packets and flits
	// this engine creates come from it, and every flit it reassembles,
	// every request it has answered and every response it has dispatched
	// go back to it.
	pool *flit.Pool
	cfg  Config

	// Port connects to the cluster switch via a link.
	Port  *network.Port
	sendQ *sim.Queue[*flit.Flit]
	// segBuf is the reused slice a packet is segmented into.
	segBuf []*flit.Flit

	nextID uint64
	// pendingReads/pendingPTEs count in-flight remote requests; the
	// requests themselves ride on their transactions (a response packet
	// carries its transaction back, so no side lookup table is needed).
	pendingReads int
	pendingPTEs  int
	// outstandingWrites counts posted remote writes awaiting WriteRsp.
	outstandingWrites int

	// Spans, when non-nil, opens a lifecycle span on every packet this
	// engine creates (see cluster.System.AttachObs). Nil costs nothing.
	Spans *obs.SpanRecorder

	Stats RDMAStats
}

// NewRDMA builds the engine. The port buffer is sized like a switch
// buffer.
func NewRDMA(name string, gpuID int, topo Topology, mem *MemPartition, cfg Config, tbl *txn.Table, sched *sim.Scheduler, pool *flit.Pool) *RDMA {
	r := &RDMA{
		Name:  name,
		gpuID: gpuID,
		dev:   topo.DeviceOf(gpuID),
		topo:  topo,
		mem:   mem,
		table: tbl,
		sched: sched,
		pool:  pool,
		cfg:   cfg,
		Port:  network.NewPort(name+".port", 1024),
		sendQ: sim.NewQueue[*flit.Flit](0, 1),
	}
	r.Stats.BytesNeeded = stats.NewHistogram("le16", "le32", "le48", "le64")
	return r
}

// Device returns this engine's network endpoint id.
func (r *RDMA) Device() flit.DeviceID { return r.dev }

// OutstandingWrites returns posted writes not yet acknowledged.
func (r *RDMA) OutstandingWrites() int { return r.outstandingWrites }

// PendingReads returns in-flight remote reads (drain check).
func (r *RDMA) PendingReads() int { return r.pendingReads + r.pendingPTEs }

func (r *RDMA) newPacket(t flit.Type, dst flit.DeviceID, dstGPU int, addr uint64, now sim.Cycle) *flit.Packet {
	r.nextID++
	p := r.pool.NewPacket(flit.Packet{
		ID:         uint64(r.gpuID)<<48 | r.nextID,
		Type:       t,
		Src:        r.dev,
		Dst:        dst,
		SrcCluster: r.topo.ClusterOf(r.gpuID),
		DstCluster: r.topo.ClusterOf(dstGPU),
		Addr:       addr,
	})
	p.Span = r.Spans.Start(p.ID, p.ID, t.String(), int(r.dev), int(dst), now)
	return p
}

func (r *RDMA) send(p *flit.Packet, now sim.Cycle) {
	r.segBuf = r.pool.Segment(r.segBuf[:0], p, r.cfg.FlitBytes)
	for _, f := range r.segBuf {
		r.sendQ.Push(f, now)
	}
}

// trimFields computes the three repurposed trim bits for a read of
// `bytes` bytes at paddr: eligible when the span fits one trim-sized
// sector.
func trimFields(paddr uint64, bytes, trimBytes int) (eligible bool, offset uint8) {
	if bytes <= 0 || bytes > trimBytes {
		return false, 0
	}
	lineOff := int(paddr % flit.LineBytes)
	first := lineOff / trimBytes
	last := (lineOff + bytes - 1) / trimBytes
	if first != last {
		return false, 0
	}
	return true, uint8(first)
}

// Continuation roles the RDMA engine parks on transactions.
const (
	// rdmaRoleReadStats — a remote read's response arrived; record its
	// round-trip latency before unwinding to the CU. Arg is the issue
	// cycle shifted left once, with the inter-cluster flag in bit 0.
	rdmaRoleReadStats uint16 = iota
	// rdmaRoleWriteDone — a posted remote write's WriteRsp arrived.
	rdmaRoleWriteDone
	// rdmaRoleServeRead — the local partition finished a remote GPU's
	// read; build and send the ReadRsp. Ref is the request packet.
	rdmaRoleServeRead
	// rdmaRoleServeWrite — likewise for a WriteReq.
	rdmaRoleServeWrite
	// rdmaRoleServePTE — likewise for a PTReq.
	rdmaRoleServePTE
)

// OnComplete implements txn.Handler.
func (r *RDMA) OnComplete(t *txn.Transaction, f txn.Frame, at sim.Cycle) {
	switch f.Role {
	case rdmaRoleReadStats:
		lat := int64(at - sim.Cycle(f.Arg>>1))
		if f.Arg&1 == 1 {
			r.Stats.InterClusterReads.Inc()
			r.Stats.InterClusterReadCycles.Add(lat)
		} else {
			r.Stats.IntraClusterReads.Inc()
			r.Stats.IntraClusterReadCycles.Add(lat)
		}
		t.Complete(at)
	case rdmaRoleWriteDone:
		r.outstandingWrites--
		if r.outstandingWrites < 0 {
			panic("gpu: WriteRsp without outstanding write")
		}
		// A WriteRemote-acquired transaction has no frames left and
		// retires here; a caller-owned one (WriteRemoteTxn) unwinds to
		// the caller's continuation instead.
		if t.Depth() > 0 {
			t.Complete(at)
		} else {
			t.Release()
		}
	case rdmaRoleServeRead:
		r.finishServeRead(t, f.Ref.(*flit.Packet), at)
	case rdmaRoleServeWrite:
		req := f.Ref.(*flit.Packet)
		rsp := r.newResponse(flit.WriteRsp, req, at)
		r.pool.ReleasePacket(req)
		r.send(rsp, at)
		t.Release()
	case rdmaRoleServePTE:
		req := f.Ref.(*flit.Packet)
		rsp := r.newResponse(flit.PTRsp, req, at)
		r.pool.ReleasePacket(req)
		r.send(rsp, at)
		t.Release()
	}
}

// ReadRemote issues a read of t.Size bytes at t.PAddr to its home GPU.
// The response packet carries t back; t.Trimmed reports whether it
// arrived trimmed.
func (r *RDMA) ReadRemote(t *txn.Transaction, now sim.Cycle) {
	paddr, bytes := t.PAddr, t.Size
	home := r.topo.HomeGPU(paddr)
	if home == r.gpuID {
		panic("gpu: ReadRemote to self")
	}
	r.Stats.RemoteReads.Inc()
	p := r.newPacket(flit.ReadReq, r.topo.DeviceOf(home), home, paddr, now)
	p.RequiredBytesHint = bytes
	p.TrimEligible, p.SectorOffset = trimFields(paddr, bytes, r.cfg.TrimBytes)
	p.TrimBytes = r.cfg.TrimBytes
	p.SectorRequest = r.cfg.FetchMode == FetchSector && bytes < flit.LineBytes
	interBit := uint64(0)
	if p.CrossesClusters() {
		interBit = 1
		switch {
		case bytes <= 16:
			r.Stats.BytesNeeded.Observe("le16", 1)
		case bytes <= 32:
			r.Stats.BytesNeeded.Observe("le32", 1)
		case bytes <= 48:
			r.Stats.BytesNeeded.Observe("le48", 1)
		default:
			r.Stats.BytesNeeded.Observe("le64", 1)
		}
	}
	p.Txn = t
	t.SetState(txn.StateNet, now)
	t.Push(r, rdmaRoleReadStats, uint64(now)<<1|interBit, nil)
	r.pendingReads++
	r.send(p, now)
}

// WriteRemote posts a write of `bytes` dirty bytes at paddr to its home
// GPU. The wavefront does not wait; the write drains under its own
// pooled transaction, retired by the WriteRsp. Trim hints ride along so
// a controller with the write-mask extension enabled can trim the
// payload.
func (r *RDMA) WriteRemote(paddr uint64, bytes int, now sim.Cycle) {
	w := r.table.Acquire(txn.KindWrite, now)
	w.PAddr, w.Size = paddr, bytes
	w.OriginGPU = r.gpuID
	r.WriteRemoteTxn(w, now)
}

// WriteRemoteTxn posts a write of t.Size bytes at t.PAddr under the
// caller's transaction. Unlike WriteRemote's fire-and-forget drain,
// the caller keeps its own continuation frames on t and gets the
// transaction handed back (Complete) when the WriteRsp arrives —
// traffic injectors use this to observe per-transfer acknowledgment.
// A t with no caller frames behaves exactly like WriteRemote: retired
// here when acknowledged.
func (r *RDMA) WriteRemoteTxn(t *txn.Transaction, now sim.Cycle) {
	paddr, bytes := t.PAddr, t.Size
	home := r.topo.HomeGPU(paddr)
	if home == r.gpuID {
		panic("gpu: WriteRemote to self")
	}
	r.Stats.RemoteWrites.Inc()
	p := r.newPacket(flit.WriteReq, r.topo.DeviceOf(home), home, paddr, now)
	p.RequiredBytesHint = bytes
	p.TrimEligible, p.SectorOffset = trimFields(paddr, bytes, r.cfg.TrimBytes)
	p.TrimBytes = r.cfg.TrimBytes
	t.Push(r, rdmaRoleWriteDone, 0, nil)
	t.SetState(txn.StateNet, now)
	p.Txn = t
	r.outstandingWrites++
	r.send(p, now)
}

// ReadPTERemote fetches a PTE from a remote GPU (PTReq/PTRsp traffic)
// on behalf of t (a walk's primary transaction).
func (r *RDMA) ReadPTERemote(t *txn.Transaction, addr uint64, now sim.Cycle) {
	home := r.topo.HomeGPU(addr)
	if home == r.gpuID {
		panic("gpu: ReadPTERemote to self")
	}
	r.Stats.RemotePTEReads.Inc()
	p := r.newPacket(flit.PTReq, r.topo.DeviceOf(home), home, addr, now)
	p.Txn = t
	t.SetState(txn.StateNet, now)
	r.pendingPTEs++
	r.send(p, now)
}

// Tick implements sim.Ticker: receive + dispatch, then drain sends.
func (r *RDMA) Tick(now sim.Cycle) bool {
	busy := false
	for {
		f, ok := r.Port.In.Pop(now)
		if !ok {
			break
		}
		busy = true
		// The first flit of a packet moves its span into the reassembly
		// stage; repeat stamps for later flits accumulate there too.
		f.Pkt.Span.To(obs.StageReassemble, now)
		r.arrive(f.Pkt, f.Used, now)
		for _, it := range f.Stitched {
			r.arrive(it.Pkt, it.Used, now)
		}
		r.pool.ReleaseFlit(f)
	}
	for {
		f, ok := r.sendQ.Peek(now)
		if !ok || r.Port.Out.Full() {
			break
		}
		r.sendQ.PopReady() // readiness established by Peek above
		f.Pkt.Span.To(obs.StageSrcNet, now)
		r.Port.Out.Push(f, now)
		busy = true
	}
	return busy
}

// SetWaker implements sim.Ticker: arrivals on the network port and
// sends enqueued by scheduler-driven protocol handlers (request
// issues, response builds) both re-arm the engine.
func (r *RDMA) SetWaker(w *sim.Waker) {
	r.Port.In.SetWaker(w)
	r.sendQ.SetWaker(w)
}

// NextWake implements sim.Ticker.
func (r *RDMA) NextWake(now sim.Cycle) sim.Cycle {
	a, b := r.Port.In.NextReady(), r.sendQ.NextReady()
	if a < b {
		return a
	}
	return b
}

// arrive accounts for used bytes of p and dispatches p once all of it
// has arrived.
func (r *RDMA) arrive(p *flit.Packet, used int, now sim.Cycle) {
	if p.Arrive(used) {
		r.dispatch(p, now)
	}
}

// dispatch acts on a fully arrived packet. A request is served under a
// serve transaction that holds it until the response is built; a
// response hands its transaction back to the requester and is released
// here.
func (r *RDMA) dispatch(p *flit.Packet, now sim.Cycle) {
	switch p.Type {
	case flit.ReadReq:
		p.Span.To(obs.StageMem, now)
		r.serveRead(p, now)
		return
	case flit.WriteReq:
		p.Span.To(obs.StageMem, now)
		r.serveWrite(p, now)
		return
	case flit.PTReq:
		p.Span.To(obs.StageMem, now)
		r.servePTE(p, now)
		return
	}
	p.Span.End(now)
	t := p.Txn
	if t == nil {
		panic(fmt.Sprintf("gpu: %s got %s without a transaction (%s)", r.Name, p.Type, p))
	}
	switch p.Type {
	case flit.ReadRsp:
		r.pendingReads--
		t.Trimmed = p.Trimmed
	case flit.PTRsp:
		r.pendingPTEs--
	}
	r.pool.ReleasePacket(p)
	t.Complete(now)
}

// newResponse builds a response packet routed back to the requester.
// The request's span ends here (its memory-service stage closes when
// the response is created) and the response opens a fresh span whose
// trace id is the request packet's ID, so offline analysis can stitch
// the round trip back together. The requester's transaction rides along
// on the response.
func (r *RDMA) newResponse(t flit.Type, req *flit.Packet, now sim.Cycle) *flit.Packet {
	r.nextID++
	p := r.pool.NewPacket(flit.Packet{
		ID:         uint64(r.gpuID)<<48 | r.nextID,
		Type:       t,
		Src:        r.dev,
		Dst:        req.Src,
		SrcCluster: r.topo.ClusterOf(r.gpuID),
		DstCluster: req.SrcCluster,
		Addr:       req.Addr,
		Txn:        req.Txn,
	})
	req.Span.End(now)
	p.Span = r.Spans.Start(p.ID, req.ID, t.String(), int(r.dev), int(req.Src), now)
	return p
}

// serveRead answers a remote GPU's read against the local partition,
// under a local serve transaction.
func (r *RDMA) serveRead(req *flit.Packet, now sim.Cycle) {
	r.Stats.ServedReads.Inc()
	s := r.table.Acquire(txn.KindServe, now)
	s.PAddr = req.Addr
	s.Size = req.RequiredBytesHint
	s.OriginGPU = r.gpuID
	s.Push(r, rdmaRoleServeRead, 0, req)
	r.mem.ReadLine(s, req.Addr, now)
}

func (r *RDMA) finishServeRead(s *txn.Transaction, req *flit.Packet, at sim.Cycle) {
	rsp := r.newResponse(flit.ReadRsp, req, at)
	rsp.TrimEligible = req.TrimEligible
	rsp.SectorOffset = req.SectorOffset
	rsp.TrimBytes = req.TrimBytes
	if req.SectorRequest {
		// Sector-cache baseline: return exactly the sectors the
		// request covers, on every network (not only
		// inter-cluster ones).
		g := req.TrimBytes
		if g <= 0 {
			g = flit.SectorBytes
		}
		off := int(req.Addr % flit.LineBytes)
		first := off / g
		last := (off + req.RequiredBytesHint - 1) / g
		rsp.Trimmed = true
		rsp.TrimBytes = (last - first + 1) * g
	}
	r.pool.ReleasePacket(req)
	r.send(rsp, at)
	s.Release()
}

func (r *RDMA) serveWrite(req *flit.Packet, now sim.Cycle) {
	r.Stats.ServedWrites.Inc()
	s := r.table.Acquire(txn.KindServe, now)
	s.PAddr = req.Addr
	s.OriginGPU = r.gpuID
	s.Push(r, rdmaRoleServeWrite, 0, req)
	r.mem.WriteLine(s, req.Addr, now)
}

func (r *RDMA) servePTE(req *flit.Packet, now sim.Cycle) {
	r.Stats.ServedPTEs.Inc()
	s := r.table.Acquire(txn.KindServe, now)
	s.PAddr = req.Addr
	s.OriginGPU = r.gpuID
	s.Push(r, rdmaRoleServePTE, 0, req)
	r.mem.ReadLine(s, req.Addr, now)
}
