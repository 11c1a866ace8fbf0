package stats

import (
	"netcrafter/internal/obs/timeline"
	"netcrafter/internal/sim"
)

// LinkStats tracks the activity of one network link; utilization is
// busy flit-slots over elapsed capacity, the quantity Fig 4 reports for
// the inter-GPU-cluster network.
type LinkStats struct {
	Name        string
	FlitsMoved  Counter
	StallCycles Counter // cycles a ready flit could not move
	// Track, when non-nil, receives one observation per moved flit and
	// windows them into the timeline's congestion heatmap. Wired by
	// cluster.System.AttachObs; nil (the default) is free.
	Track         *timeline.Track
	flitsPerCycle int
	firstActive   sim.Cycle
	lastActive    sim.Cycle
	sawActivity   bool
}

// NewLinkStats creates stats for a link moving up to flitsPerCycle.
func NewLinkStats(name string, flitsPerCycle int) *LinkStats {
	return &LinkStats{Name: name, flitsPerCycle: flitsPerCycle}
}

// RecordMove notes one flit crossing the link at the given cycle.
func (l *LinkStats) RecordMove(now sim.Cycle) {
	l.Track.Observe(now, 1)
	l.FlitsMoved.Inc()
	if !l.sawActivity || now < l.firstActive {
		l.firstActive = now
	}
	if now > l.lastActive {
		l.lastActive = now
	}
	l.sawActivity = true
}

// Utilization returns busy slot share over the total run window
// [0, end]. A link saturated for the whole run reports ~1.0.
func (l *LinkStats) Utilization(end sim.Cycle) float64 {
	if end <= 0 || l.flitsPerCycle <= 0 {
		return 0
	}
	capacity := float64(end) * float64(l.flitsPerCycle)
	return float64(l.FlitsMoved.Value()) / capacity
}

// ActiveUtilization returns busy slot share over the link's active
// window [firstActive, lastActive]. Unlike Utilization, it excludes the
// warm-up before the first flit and the drain after the last one, so a
// link saturated whenever traffic existed reports ~1.0 even in a run
// dominated by compute phases.
func (l *LinkStats) ActiveUtilization() float64 {
	if !l.sawActivity || l.flitsPerCycle <= 0 {
		return 0
	}
	window := float64(l.lastActive-l.firstActive+1) * float64(l.flitsPerCycle)
	return float64(l.FlitsMoved.Value()) / window
}

// NetStats aggregates the traffic picture of the inter-cluster network:
// per-type flit counts, occupancy classes, stitch/trim activity. It
// backs Figs 4, 6, 9, 12, 15 and 20.
type NetStats struct {
	FlitsByType    *Histogram // ReadReq/ReadRsp/... flit counts
	BytesByType    *Histogram // useful bytes by type
	Occupancy      *Histogram // full/pad25/pad75/other flit shares
	FlitsTotal     Counter
	FlitsStitched  Counter // flits ejected carrying stitched content
	ItemsStitched  Counter // candidate items absorbed by stitching
	FlitsTrimmed   Counter // payload flits avoided by trimming
	PacketsTrimmed Counter
	PTWFlits       Counter
	DataFlits      Counter
	PooledFlits    Counter // flits that waited on a pooling timer
	WireBytes      Counter // slot bytes actually ejected on the wire
}

// NewNetStats returns zeroed network statistics.
func NewNetStats() *NetStats {
	return &NetStats{
		FlitsByType: NewHistogram("ReadReq", "ReadRsp", "WriteReq", "WriteRsp", "PTReq", "PTRsp"),
		BytesByType: NewHistogram("ReadReq", "ReadRsp", "WriteReq", "WriteRsp", "PTReq", "PTRsp"),
		Occupancy:   NewHistogram("full", "pad25", "pad75", "other"),
	}
}

// NetCounter is one NetStats counter with its gauge name.
type NetCounter struct {
	Name string // per-controller gauge suffix, e.g. "wire_bytes_total"
	C    *Counter
}

// Counters lists the traffic counters with their gauge names: the one
// list that metrics gauges and Merge both walk.
func (n *NetStats) Counters() []NetCounter {
	return []NetCounter{
		{"flits_total", &n.FlitsTotal},
		{"flits_stitched", &n.FlitsStitched},
		{"items_stitched", &n.ItemsStitched},
		{"flits_trimmed", &n.FlitsTrimmed},
		{"packets_trimmed", &n.PacketsTrimmed},
		{"pooled_flits", &n.PooledFlits},
		{"ptw_flits", &n.PTWFlits},
		{"data_flits", &n.DataFlits},
		{"wire_bytes_total", &n.WireBytes},
	}
}

// Merge adds o's counters and histograms into n.
func (n *NetStats) Merge(o *NetStats) {
	oc := o.Counters()
	for i, c := range n.Counters() {
		c.C.Add(oc[i].C.Value())
	}
	n.Occupancy.Merge(o.Occupancy)
	n.FlitsByType.Merge(o.FlitsByType)
	n.BytesByType.Merge(o.BytesByType)
}

// StitchRate returns the fraction of ejected flits carrying stitched
// content (Fig 12).
func (n *NetStats) StitchRate() float64 {
	t := n.FlitsTotal.Value()
	if t == 0 {
		return 0
	}
	return float64(n.FlitsStitched.Value()) / float64(t)
}

// PTWShare returns the PTW fraction of inter-cluster flits (Fig 9).
func (n *NetStats) PTWShare() float64 {
	t := n.PTWFlits.Value() + n.DataFlits.Value()
	if t == 0 {
		return 0
	}
	return float64(n.PTWFlits.Value()) / float64(t)
}
