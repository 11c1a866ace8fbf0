package cluster

import (
	"fmt"

	"netcrafter/internal/core"
	"netcrafter/internal/flit"
	"netcrafter/internal/network"
	"netcrafter/internal/obs"
	"netcrafter/internal/obs/timeline"
	"netcrafter/internal/sim"
)

// obsWireWindow is the window of the per-controller ejected-bytes time
// series and the timeline's utilization/occupancy tracks: coarse enough
// to keep a long run's series small, fine enough to show phase
// behaviour.
const obsWireWindow sim.Cycle = 1024

// AttachObs wires the whole system into the metrics registry, the span
// recorder and the event timeline. Any argument may be nil (a nil
// registry yields nil instruments; a nil recorder leaves packet spans
// off; a nil timeline records no events), so callers can enable each
// independently. Call before running a workload; attaching mid-run only
// affects what happens afterwards.
//
// The registry receives, per GPU, the latency histograms and pull
// gauges of gpu.GPU.AttachObs; per controller, a residency histogram
// (ncN.ctl_latency_cycles), a wire-bytes time series (ncN.wire_bytes)
// and a pull gauge per NetStats.Counters entry; and per guarded link
// direction (interN and taperN), overall and active-window utilization
// pull gauges.
//
// The timeline receives per-component execute slices from the engine's
// tick probe, a windowed utilization track per link direction, per
// controller an occupancy track over its cluster queue and five
// windowed event-count tracks (ncN.eject, .stitch, .trim, .pool,
// .unstitch), an occupancy track per guarded-link endpoint buffer, and
// per-state dwell tracks from every cluster's transaction table. Call
// Timeline.Finish after the run, then export with WriteTrace /
// WriteHeatmap / WriteProfile.
func (s *System) AttachObs(reg *obs.Registry, spans *obs.SpanRecorder, tl *timeline.Timeline) {
	s.obsReg, s.obsTL = reg, tl
	s.obsSpans = s.obsSpans || spans != nil
	s.attachTimeline(tl)
	for _, g := range s.GPUs {
		g.AttachObs(reg, spans)
	}
	for _, ctl := range s.Controllers {
		p := ctl.Name + "."
		ctl.ObsCtlLat = reg.Hist(p + "ctl_latency_cycles")
		ctl.ObsWire = reg.Series(p+"wire_bytes", obsWireWindow)
		for _, c := range ctl.Net.Counters() {
			reg.GaugeFunc(p+c.Name, func() float64 { return float64(c.C.Value()) })
		}
		reg.GaugeFunc(p+"queued_flits", func() float64 { return float64(ctl.QueuedFlits()) })
	}
	for _, set := range s.guardedLinks() {
		for i, l := range set.links {
			p := fmt.Sprintf("%s%d.", set.prefix, i)
			reg.GaugeFunc(p+"util_a2b", func() float64 { return l.AtoB.Utilization(s.Engine.Now()) })
			reg.GaugeFunc(p+"util_b2a", func() float64 { return l.BtoA.Utilization(s.Engine.Now()) })
			reg.GaugeFunc(p+"active_util_a2b", func() float64 { return l.AtoB.ActiveUtilization() })
			reg.GaugeFunc(p+"active_util_b2a", func() float64 { return l.BtoA.ActiveUtilization() })
		}
	}
}

// linkSet is a group of controller-guarded links and the prefix of
// their per-link metric and track names.
type linkSet struct {
	prefix string
	links  []*network.Link
}

// guardedLinks lists the controller-guarded links by name prefix:
// inter<i> for the cluster-boundary links, taper<i> for the
// within-cluster taper segments (fat-tree up/down links and the like;
// empty on boundary-only fabrics, so the seed presets' metric
// namespaces are unchanged).
func (s *System) guardedLinks() []linkSet {
	return []linkSet{{"inter", s.InterLinks}, {"taper", s.TaperLinks}}
}

// attachTimeline wires the event timeline (see AttachObs). A nil
// timeline detaches everything it would have attached.
func (s *System) attachTimeline(tl *timeline.Timeline) {
	tl.AttachEngine(s.Engine)
	for _, l := range s.Links {
		l.AtoB.Track = tl.NewUtilTrack(l.AtoB.Name, obsWireWindow, float64(l.ABRate))
		l.BtoA.Track = tl.NewUtilTrack(l.BtoA.Name, obsWireWindow, float64(l.BARate))
	}
	for _, ctl := range s.Controllers {
		ctl.ObsOccupancy = tl.NewOccupancyTrack(ctl.Name+".queue", obsWireWindow)
		ctl.ObsEvents = nil
		if tl != nil {
			ctl.ObsEvents = new([core.NumWireEvents]*timeline.Track)
			for e := range ctl.ObsEvents {
				ctl.ObsEvents[e] = tl.NewCountTrack(ctl.Name+"."+core.WireEvent(e).String(), obsWireWindow)
			}
		}
	}
	probe := func(q *sim.Queue[*flit.Flit], name string) {
		if tl == nil {
			q.SetDepthProbe(nil)
			return
		}
		tr := tl.NewOccupancyTrack(name, obsWireWindow)
		q.SetDepthProbe(func(at sim.Cycle, depth int) {
			tr.Observe(at, float64(depth))
		})
	}
	for _, set := range s.guardedLinks() {
		for i, l := range set.links {
			probe(l.A.In, fmt.Sprintf("%s%d.a.in", set.prefix, i))
			probe(l.B.In, fmt.Sprintf("%s%d.b.in", set.prefix, i))
		}
	}
	for _, tb := range s.Tables {
		tb.SetTimeline(tl)
	}
}
