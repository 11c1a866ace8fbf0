package core

import (
	"fmt"

	"netcrafter/internal/flit"
	"netcrafter/internal/network"
	"netcrafter/internal/obs"
	"netcrafter/internal/obs/timeline"
	"netcrafter/internal/sim"
	"netcrafter/internal/stats"
)

// partClass indexes the cluster-queue partitions within a destination
// cluster: one per data packet type plus one shared PTW partition, per
// Fig 13 ("except for PTW-related flits, which are placed in a separate
// queue").
type partClass int

const (
	classReadReq partClass = iota
	classReadRsp
	classWriteReq
	classWriteRsp
	classPTW
	// classFIFO is the single queue of the baseline configuration: the
	// partitioned Cluster Queue is part of NetCrafter (Fig 13), so a
	// controller with every mechanism disabled degenerates to one FIFO
	// per destination, where latency-critical flits do get stuck
	// behind data — the bottleneck Observation 3 starts from.
	classFIFO
	numClasses
)

func classOf(t flit.Type) partClass {
	switch t {
	case flit.ReadReq:
		return classReadReq
	case flit.ReadRsp:
		return classReadRsp
	case flit.WriteReq:
		return classWriteReq
	case flit.WriteRsp:
		return classWriteRsp
	default:
		return classPTW
	}
}

// partitioned reports whether the Cluster Queue keeps per-type
// partitions: true whenever any NetCrafter mechanism is active.
func (c Config) partitioned() bool {
	// SeqDataEqual is the Fig-8 control experiment on the *baseline*
	// network: it keeps the FIFO and only reorders within it.
	return c.EnableStitch || c.EnableTrim || c.PoolingCycles > 0 || c.Sequencing == SeqPTW
}

type partKey struct {
	dst   flit.ClusterID
	class partClass
}

// partition is one (destination cluster × type) slice of the Cluster
// Queue, with its Flit Pooling state: a pooled flit is parked in the
// stitch engine's single-flit buffer (the paper's 16B SRAM) with a
// deadline, while the flits behind it keep flowing.
type partition struct {
	key          partKey
	q            *sim.Queue[*flit.Flit]
	pooledFlit   *flit.Flit
	poolDeadline sim.Cycle
}

// trimState tracks an in-flight packet being trimmed: original flits
// are absorbed and the re-segmented (shorter) flit train of a trimmed
// copy is sent once the flit carrying the needed sector has arrived.
// It is keyed on the original packet, which the trim engine releases
// with the state when the last original flit has been absorbed.
type trimState struct {
	releaseSeq int // original flit index whose arrival sends the trimmed train
	origCount  int
	seen       int
	sent       bool
}

// Controller is one NetCrafter controller instance guarding one
// cluster's attachment to the inter-GPU-cluster network. Flits flowing
// outward (Local.In -> Remote.Out) pass the Trim Engine, Cluster Queue,
// scheduler and Stitch Engine; flits flowing inward (Remote.In ->
// Local.Out) are un-stitched and forwarded.
type Controller struct {
	Name string
	cfg  Config
	// Local faces the cluster switch; Remote faces the inter-cluster
	// link (and the peer controller on its far side).
	Local  *network.Port
	Remote *network.Port
	// Net accumulates the traffic statistics of flits this controller
	// ejects onto the inter-cluster network.
	Net *stats.NetStats
	// ObsCtlLat, when non-nil, feeds per-flit controller residency
	// (cluster queue + pooling) into the metrics registry; ObsWire
	// samples ejected wire bytes into a cycle-windowed series. Both are
	// wired by cluster.System.AttachObs and free when nil.
	ObsCtlLat *obs.Hist
	ObsWire   *obs.Series
	// ObsOccupancy, when non-nil, samples the cluster-queue depth into
	// a timeline occupancy track on every enqueue — the per-queue view
	// of the congestion heatmap. ObsEvents, when non-nil, counts each
	// WireEvent per timeline window on its own track. Both wired by
	// cluster.System.AttachObs.
	ObsOccupancy *timeline.Track
	ObsEvents    *[NumWireEvents]*timeline.Track

	home      flit.ClusterID
	parts     []*partition
	partIdx   map[partKey]int
	perDst    map[flit.ClusterID]int // flits queued per destination cluster
	perDstCap int
	rr        int
	trims     map[*flit.Packet]trimState
	// pool is the shard's flit and packet free list: un-stitched flits
	// and trimmed copies come from it; stitched-away candidates, absorbed
	// original flits and trimmed originals go back to it.
	pool *flit.Pool
	// flitBuf is the reused slice un-stitching and re-segmentation
	// append to.
	flitBuf []*flit.Flit
	// dataPrioTokens implements SeqDataEqual: one data flit is
	// prioritized for every PTW flit that entered the queue.
	dataPrioTokens int
}

// WireEvent is a controller mechanism event counted on the timeline.
type WireEvent uint8

// Wire events, in track order.
const (
	EventEject    WireEvent = iota // a flit left onto the inter-cluster wire
	EventStitch                    // an item was stitched into a parent flit
	EventTrim                      // a packet was trimmed
	EventPool                      // a flit was parked in a pool slot
	EventUnstitch                  // a stitched flit was split at ingress
	NumWireEvents
)

// String returns the event's track-name suffix ("eject", "stitch", ...).
func (e WireEvent) String() string {
	return [NumWireEvents]string{"eject", "stitch", "trim", "pool", "unstitch"}[e]
}

// observe counts one wire event on its timeline track; free when no
// timeline is attached.
func (c *Controller) observe(e WireEvent, now sim.Cycle) {
	if c.ObsEvents != nil {
		c.ObsEvents[e].Observe(now, 1)
	}
}

// NewController creates a controller for cluster home. remoteClusters
// is how many other clusters exist (the cluster queue is partitioned
// equally among them). pool is the owning shard's flit and packet free
// list.
func NewController(name string, home flit.ClusterID, remoteClusters int, cfg Config, pool *flit.Pool) *Controller {
	cfg = cfg.withDefaults()
	if remoteClusters < 1 {
		remoteClusters = 1
	}
	return &Controller{
		Name:      name,
		cfg:       cfg,
		Local:     network.NewPort(name+".local", cfg.CQEntries),
		Remote:    network.NewPort(name+".remote", cfg.CQEntries),
		Net:       stats.NewNetStats(),
		home:      home,
		partIdx:   make(map[partKey]int),
		perDst:    make(map[flit.ClusterID]int),
		perDstCap: cfg.CQEntries / remoteClusters,
		trims:     make(map[*flit.Packet]trimState),
		pool:      pool,
	}
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Tick implements sim.Ticker.
func (c *Controller) Tick(now sim.Cycle) bool {
	busy := c.tickIngress(now)
	if c.tickIntake(now) {
		busy = true
	}
	if c.tickEgress(now) {
		busy = true
	}
	return busy
}

// tickIngress un-stitches flits arriving from the inter-cluster link
// and forwards them toward the cluster switch.
func (c *Controller) tickIngress(now sim.Cycle) bool {
	busy := false
	for {
		in, ok := c.Remote.In.Peek(now)
		if !ok {
			break
		}
		// The parent plus every stitched item must fit downstream.
		if c.Local.Out.Space() < 1+len(in.Stitched) {
			break
		}
		c.Remote.In.PopReady() // readiness established by Peek above
		if len(in.Stitched) > 0 {
			c.observe(EventUnstitch, now)
		}
		c.flitBuf = c.pool.Unstitch(c.flitBuf[:0], in)
		for _, item := range c.flitBuf {
			item.Pkt.Span.To(obs.StageDstNet, now)
			c.Local.Out.Push(item, now)
		}
		in.Pkt.Span.To(obs.StageDstNet, now)
		c.Local.Out.Push(in, now)
		busy = true
	}
	return busy
}

// tickIntake drains flits from the cluster switch into the Cluster
// Queue, applying the Trim Engine on the way.
func (c *Controller) tickIntake(now sim.Cycle) bool {
	busy := false
	for {
		f, ok := c.Local.In.Peek(now)
		if !ok {
			break
		}
		dst := f.Pkt.DstCluster
		if c.perDst[dst] >= c.perDstCap {
			break // back-pressure into the cluster switch
		}
		c.Local.In.PopReady() // readiness established by Peek above
		busy = true
		if c.cfg.EnableTrim && c.intakeTrim(f, now) {
			continue
		}
		c.enqueue(f, now)
	}
	return busy
}

// intakeTrim handles a flit of a trim-eligible read response. It
// reports true when the flit was consumed by the trim engine (the
// caller must not enqueue it).
//
// The trimmed train carries a copy of the packet, because it can finish
// reassembly, and be released, before the last original flit reaches
// this controller: the original stays with the trim state until then.
func (c *Controller) intakeTrim(f *flit.Flit, now sim.Cycle) bool {
	p := f.Pkt
	switch p.Type {
	case flit.ReadRsp:
		// The paper's Trim Engine target.
	case flit.WriteReq:
		if !c.cfg.TrimWrites {
			return false
		}
	default:
		return false
	}
	if !p.TrimEligible {
		return false
	}
	ts, ok := c.trims[p]
	if !ok {
		if p.Trimmed {
			// Already trimmed upstream (e.g. sector-cache mode
			// pre-trims at the home GPU); nothing to do here.
			return false
		}
		g := p.TrimBytes
		if g == 0 {
			g = flit.SectorBytes
		}
		endByte := p.HeaderBytes() + (int(p.SectorOffset)+1)*g - 1
		ts = trimState{releaseSeq: endByte / f.Size, origCount: p.FlitCount(f.Size)}
	}
	ts.seen++
	if !ts.sent && f.Seq >= ts.releaseSeq {
		cp := c.pool.NewPacket(*p)
		if p.Type == flit.WriteReq {
			flit.TrimWriteRequest(cp)
		} else {
			flit.TrimResponse(cp)
		}
		c.flitBuf = c.pool.Segment(c.flitBuf[:0], cp, f.Size)
		for _, tf := range c.flitBuf {
			c.enqueue(tf, now)
		}
		c.Net.PacketsTrimmed.Inc()
		c.Net.FlitsTrimmed.Add(int64(ts.origCount - len(c.flitBuf)))
		c.observe(EventTrim, now)
		ts.sent = true
	}
	c.pool.ReleaseFlit(f)
	if ts.seen >= ts.origCount {
		delete(c.trims, p)
		c.pool.ReleasePacket(p)
	} else {
		c.trims[p] = ts
	}
	return true
}

func (c *Controller) enqueue(f *flit.Flit, now sim.Cycle) {
	class := classFIFO
	if c.cfg.partitioned() {
		class = classOf(f.Pkt.Type)
	}
	key := partKey{dst: f.Pkt.DstCluster, class: class}
	idx, ok := c.partIdx[key]
	if !ok {
		idx = len(c.parts)
		c.partIdx[key] = idx
		c.parts = append(c.parts, &partition{
			key: key,
			q:   sim.NewQueue[*flit.Flit](0, 1),
		})
	}
	f.CtlArrivedAt = now
	f.Pkt.Span.To(obs.StageCtlQueue, now)
	c.parts[idx].q.Push(f, now)
	if c.ObsOccupancy != nil {
		c.ObsOccupancy.Observe(now, float64(c.QueuedFlits()))
	}
	c.perDst[f.Pkt.DstCluster]++
	if f.IsPTW() {
		c.dataPrioTokens++
	}
}

// tickEgress runs the scheduler and stitch engine, ejecting up to
// EjectRate flits onto the inter-cluster link.
func (c *Controller) tickEgress(now sim.Cycle) bool {
	busy := false
	for slot := 0; slot < c.cfg.EjectRate; slot++ {
		if c.Remote.Out.Full() {
			break
		}
		if !c.ejectOne(now) {
			break
		}
		busy = true
	}
	return busy
}

// ejectOne selects a partition per the sequencing policy, stitches and
// ejects its head flit. It reports whether a flit was ejected.
func (c *Controller) ejectOne(now sim.Cycle) bool {
	if c.cfg.Sequencing == SeqDataEqual && c.dataPrioTokens > 0 {
		if c.ejectDataFirst(now) {
			return true
		}
	}
	if p := c.pickPriority(now); p != nil {
		return c.serve(p, now)
	}
	// Round-robin over all partitions. A partition whose head gets
	// pooled does not consume the slot — "the ejection is delayed
	// temporarily while subsequent flits in the queue are processed".
	n := len(c.parts)
	for k := 0; k < n; k++ {
		i := (c.rr + k) % n
		p := c.parts[i]
		if p.pooledFlit == nil && !p.q.CanPop(now) {
			continue
		}
		if c.serve(p, now) {
			c.rr = (i + 1) % n
			return true
		}
	}
	// Nothing else to send this cycle: the wire would go idle, so any
	// pooled flit goes out now rather than finish its window — pooling
	// never spends link cycles that would otherwise be free.
	for _, p := range c.parts {
		if p.pooledFlit == nil {
			continue
		}
		parent := p.pooledFlit
		p.pooledFlit = nil
		c.stitchInto(parent, p, now)
		c.eject(parent, now)
		return true
	}
	return false
}

// pickPriority implements the SeqPTW sequencing bias: serve the PTW
// partitions first whenever they hold a flit.
func (c *Controller) pickPriority(now sim.Cycle) *partition {
	if c.cfg.Sequencing != SeqPTW {
		return nil
	}
	for _, p := range c.parts {
		if p.key.class == classPTW && (p.pooledFlit != nil || p.q.CanPop(now)) {
			return p
		}
	}
	return nil
}

// ejectDataFirst implements the Fig-8 control: on the baseline FIFO, a
// data flit overtakes any PTW flits queued ahead of it (one overtake
// per PTW flit observed). It reports whether a flit was ejected.
func (c *Controller) ejectDataFirst(now sim.Cycle) bool {
	for _, p := range c.parts {
		for i := 0; i < p.q.Len() && i < stitchSearchWindow; i++ {
			if p.q.ReadyAt(i) > now {
				break
			}
			f, _ := p.q.Get(i)
			if f.IsPTW() {
				continue // step over queued PTW flits
			}
			if i == 0 {
				return false // head is already data: FIFO order suffices
			}
			p.q.RemoveAt(i)
			c.dataPrioTokens--
			c.eject(f, now)
			return true
		}
	}
	return false
}

// serve runs the stitch engine for partition p: first the pooled flit
// (eject when a candidate arrived or the window expired), then the
// queue head (eject stitched/full, or park it in the pool slot). It
// reports whether a flit was ejected.
func (c *Controller) serve(p *partition, now sim.Cycle) bool {
	if p.pooledFlit != nil {
		parent := p.pooledFlit
		stitched := c.stitchInto(parent, p, now)
		if stitched > 0 || now >= p.poolDeadline {
			p.pooledFlit = nil
			c.eject(parent, now)
			return true
		}
		// Still waiting; fall through to serve the flits behind it.
	}
	parent, ok := p.q.Peek(now)
	if !ok {
		return false
	}
	if c.cfg.EnableStitch && parent.EmptyBytes() >= smallestCandidateBytes {
		// The head must be popped before the candidate search so it
		// cannot select itself.
		p.q.PopReady()
		if c.stitchInto(parent, p, now) == 0 && c.canPool(p, now) {
			p.pooledFlit = parent
			p.poolDeadline = now + c.cfg.PoolingCycles
			parent.Pkt.Span.To(obs.StagePool, now)
			c.Net.PooledFlits.Inc()
			c.observe(EventPool, now)
			return false
		}
		c.eject(parent, now)
		return true
	}
	p.q.PopReady()
	c.eject(parent, now)
	return true
}

func (c *Controller) eject(parent *flit.Flit, now sim.Cycle) {
	c.perDst[parent.Pkt.DstCluster]--
	c.ObsCtlLat.Observe(float64(now - parent.CtlArrivedAt))
	c.ObsWire.Observe(now, float64(parent.Size))
	parent.Pkt.Span.To(obs.StageWire, now)
	for _, it := range parent.Stitched {
		it.Pkt.Span.To(obs.StageWire, now)
	}
	c.recordEjection(parent, now)
	if !c.Remote.Out.Push(parent, now) {
		panic("core: remote out overflow after Full check")
	}
}

// canPool decides whether the head flit may wait one pooling window in
// the stitch buffer for a candidate. Pooling is work-conserving: a flit
// is only set aside when the scheduler has other flits to eject in the
// meantime — delaying traffic on an otherwise idle link cannot save
// bandwidth and only adds latency ("the ejection is delayed temporarily
// while subsequent flits in the queue are processed").
func (c *Controller) canPool(p *partition, now sim.Cycle) bool {
	if c.cfg.PoolingCycles <= 0 || p.pooledFlit != nil {
		return false
	}
	if p.key.class == classPTW && c.cfg.SelectivePooling {
		return false // PTW flits are latency-critical: never pooled
	}
	return c.hasOtherWork(p, now)
}

// hasOtherWork reports whether any flit besides partition p's popped
// head could be ejected now or soon.
func (c *Controller) hasOtherWork(p *partition, now sim.Cycle) bool {
	for _, q := range c.parts {
		if q != p && q.pooledFlit != nil {
			return true
		}
		if q.q.Len() > 0 {
			return true
		}
	}
	return false
}

// smallestCandidateBytes is the wire size of the smallest stitchable
// item (a whole WriteRsp packet, 4 bytes); parents with less free space
// cannot stitch anything.
const smallestCandidateBytes = 4

// stitchInto greedily stitches candidates from the cluster queue into
// parent (which the caller has already removed from any queue). It
// returns the number of items stitched.
func (c *Controller) stitchInto(parent *flit.Flit, own *partition, now sim.Cycle) int {
	count := 0
	if parent.EmptyBytes() < smallestCandidateBytes {
		return 0
	}
	for _, p := range c.parts {
		if p.key.dst != parent.Pkt.DstCluster {
			continue
		}
		if c.cfg.StitchScope == ScopeSamePartition && p != own {
			continue
		}
		// A flit pooled by another partition is the most willing
		// candidate of all: it is explicitly waiting to share a slot.
		if p.pooledFlit != nil && p.pooledFlit != parent && flit.CanStitch(parent, p.pooledFlit) {
			flit.Stitch(parent, p.pooledFlit)
			c.perDst[p.pooledFlit.Pkt.DstCluster]--
			c.pool.ReleaseFlit(p.pooledFlit)
			p.pooledFlit = nil
			count++
			c.observe(EventStitch, now)
			if parent.EmptyBytes() < smallestCandidateBytes {
				return count
			}
		}
		i := 0
		for i < p.q.Len() && i < stitchSearchWindow {
			if p.q.ReadyAt(i) > now {
				break
			}
			cand, _ := p.q.Get(i)
			if flit.CanStitch(parent, cand) {
				flit.Stitch(parent, cand)
				p.q.RemoveAt(i)
				c.perDst[cand.Pkt.DstCluster]--
				c.pool.ReleaseFlit(cand)
				count++
				c.observe(EventStitch, now)
				if parent.EmptyBytes() < smallestCandidateBytes {
					return count
				}
				continue // same index now holds the next entry
			}
			i++
		}
	}
	return count
}

// recordEjection updates traffic statistics for an ejected flit.
func (c *Controller) recordEjection(f *flit.Flit, now sim.Cycle) {
	c.Net.FlitsTotal.Inc()
	c.Net.WireBytes.Add(int64(f.Size))
	c.Net.Occupancy.Observe(flit.Occupancy(f).String(), 1)
	if f.IsStitched() {
		c.Net.FlitsStitched.Inc()
		c.Net.ItemsStitched.Add(int64(len(f.Stitched)))
	}
	c.observe(EventEject, now)
	c.countType(f.Pkt.Type, f.Used)
	for _, it := range f.Stitched {
		c.countType(it.Pkt.Type, it.WireBytes())
	}
}

func (c *Controller) countType(t flit.Type, bytes int) {
	c.Net.FlitsByType.Observe(t.String(), 1)
	c.Net.BytesByType.Observe(t.String(), int64(bytes))
	if t.IsPTW() {
		c.Net.PTWFlits.Inc()
	} else {
		c.Net.DataFlits.Inc()
	}
}

// QueuedFlits returns the number of flits currently in the cluster
// queue or parked in a pool slot (all partitions).
func (c *Controller) QueuedFlits() int {
	n := 0
	for _, p := range c.parts {
		n += p.q.Len()
		if p.pooledFlit != nil {
			n++
		}
	}
	return n
}

// SetWaker implements sim.Ticker: deliveries into either external
// input (from the cluster switch or the inter-cluster link) re-arm the
// controller. The partition queues and the pooling deadline are fed
// only from the controller's own tick, so NextWake re-arming covers
// them.
func (c *Controller) SetWaker(w *sim.Waker) {
	c.Local.In.SetWaker(w)
	c.Remote.In.SetWaker(w)
}

// NextWake implements sim.Ticker.
func (c *Controller) NextWake(now sim.Cycle) sim.Cycle {
	wake := sim.CycleMax
	min := func(x sim.Cycle) {
		if x < wake {
			wake = x
		}
	}
	min(c.Local.In.NextReady())
	min(c.Remote.In.NextReady())
	for _, p := range c.parts {
		if p.pooledFlit != nil {
			// A pooled flit is ejected on the first cycle the wire would
			// otherwise go idle (see ejectOne), not just at its window
			// deadline — that decision reads global controller state, so
			// the controller must run every cycle while anything is
			// pooled.
			return now + 1
		}
		if p.q.Len() > 0 {
			min(p.q.NextReady())
		}
	}
	return wake
}

func (c *Controller) String() string {
	return fmt.Sprintf("NetCrafter[%s cluster=%d stitch=%v trim=%v seq=%v pool=%d]",
		c.Name, c.home, c.cfg.EnableStitch, c.cfg.EnableTrim, c.cfg.Sequencing, c.cfg.PoolingCycles)
}
