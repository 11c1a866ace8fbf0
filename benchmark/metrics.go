package main

import (
	"math"
	"slices"
	"strings"
	"time"
)

const mb = 1 << 20

// median returns the middle value (the mean of the two middle values
// for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
// spreads computed here match ones computed with Python.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// med is the median of one quantity over a cell's executions.
func med(ss []*sample, f func(*sample) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

func secs(d time.Duration) float64 { return d.Seconds() }

// medianSecs is the median of durations, in seconds.
func medianSecs(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = secs(d)
	}
	return median(xs)
}

// endToEnd computes the untraced metrics a user of the simulator sees.
// Each cell contributes the median of its executions (of its set-ups,
// for setup_s), so a sum is the host cost of one sweep of the
// workload. Host times are in reference seconds: raw host times scaled
// by the run's host speed (speed.go).
func endToEnd(r *run) map[string]float64 {
	k := r.scale
	var wall, setup, loop, cycles, alloc, heap float64
	for _, cr := range r.cells {
		ss := ok(cr.plain)
		if len(ss) == 0 {
			continue
		}
		wall += med(ss, func(s *sample) float64 { return secs(s.wall()) })
		setup += medianSecs(cr.setups)
		loop += med(ss, func(s *sample) float64 { return secs(s.loop) })
		alloc += med(ss, func(s *sample) float64 { return float64(s.alloc) })
		heap = max(heap, med(ss, func(s *sample) float64 { return float64(s.peakHeap) }))
		cycles += float64(ss[0].cycles)
	}
	return map[string]float64{
		"wall_s":           wall * k,
		"setup_s":          setup * k,
		"sim_cycles_per_s": ratio(cycles, loop*k),
		"alloc_mb":         alloc / mb,
		"live_heap_mb":     heap / mb,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the layer metrics: stage timings and memory from
// the untraced sweep, exact work counts, and host-time shares from the
// traced sweeps. Engine shares are taken over engine wall time, so the
// layer shares and sim.unattributed_share sum to 1. Host times (the
// _s metrics) are in reference seconds, like the end-to-end ones;
// host.ref_cpu_s and host.ref_mem_s are the raw speed-kernel times
// that set the scale.
func perLayer(r *run) map[string]float64 {
	m := map[string]float64{}
	var cellWalls []float64
	var tracedLoop, rounds, simCycles, engineWall float64
	host := map[string]time.Duration{}
	for _, cr := range r.cells {
		ss := ok(cr.plain)
		if len(ss) == 0 {
			continue
		}
		stage := func(name string, f func(*sample) float64) { m[name] += med(ss, f) }
		stage("topo.load_s", func(s *sample) float64 { return secs(s.topo) })
		stage("inputs.gen_s", func(s *sample) float64 { return secs(s.gen) })
		stage("fabric.build_s", func(s *sample) float64 { return secs(s.build) })
		stage("fabric.alloc_mb", func(s *sample) float64 { return float64(s.buildAlloc) / mb })
		stage("exec.run_s", func(s *sample) float64 { return secs(s.run) })
		stage("exec.loop_s", func(s *sample) float64 { return secs(s.loop) })
		stage("exec.outside_loop_s", func(s *sample) float64 { return secs(s.run - s.loop) })
		stage("exec.alloc_mb", func(s *sample) float64 { return float64(s.runAlloc) / mb })
		m["fabric.heap_mb"] = max(m["fabric.heap_mb"], med(ss, func(s *sample) float64 { return float64(s.buildHeap) / mb }))
		cellWalls = append(cellWalls, med(ss, func(s *sample) float64 { return secs(s.wall()) }))
		rounds += float64(ss[0].rounds)
		simCycles += float64(ss[0].simCycles)
		m["flow.sends"] += float64(ss[0].sends)

		ts := ok(cr.traced)
		if len(ts) == 0 {
			continue
		}
		tracedLoop += med(ts, func(s *sample) float64 { return secs(s.loop) })
		for _, l := range layers {
			m[l+".ticks"] += float64(ts[0].layers[l].ticks)
		}
		for _, s := range ts {
			if s.layers == nil {
				continue
			}
			engineWall += secs(s.loop)
			for l, c := range s.layers {
				host[l] += c.host
			}
		}
	}
	m["cell.wall_p50_s"] = median(cellWalls)
	m["cell.wall_max_s"] = slices.Max(append(cellWalls, 0))
	m["trace.overhead"] = ratio(tracedLoop, m["exec.loop_s"])
	m["sim.rounds"] = rounds
	m["sim.round_frac"] = ratio(rounds, simCycles)
	attributed := 0.0
	for _, l := range layers {
		m["sim.ticks"] += m[l+".ticks"]
		share := ratio(secs(host[l]), engineWall)
		m[l+".host_share"] = share
		attributed += share
	}
	m["sim.unattributed_share"] = 0
	if engineWall > 0 {
		m["sim.unattributed_share"] = 1 - attributed
	}
	for name := range m {
		if strings.HasSuffix(name, "_s") {
			m[name] *= r.scale
		}
	}
	m["host.ref_cpu_s"], m["host.ref_mem_s"] = r.cpuRef, r.memRef
	return m
}

// outputs lists the simulated outputs of the first passing execution
// of every cell as <cell>.<name>, plus the workload's derived figures:
// the Fig-14 NetCrafter speedups and their geometric mean.
func outputs(r *run) map[string]float64 {
	out := map[string]float64{}
	for _, cr := range r.cells {
		if ss := ok(slices.Concat(cr.plain, cr.traced)); len(ss) > 0 {
			for k, v := range ss[0].out {
				out[cr.cell.name+"."+k] = v
			}
		}
	}
	logSum, n := 0.0, 0
	for _, cr := range r.cells {
		app, found := strings.CutSuffix(cr.cell.name, "/base")
		base, nc := out[app+"/base.cycles"], out[app+"/nc.cycles"]
		if !found || base == 0 || nc == 0 {
			continue
		}
		out["speedup."+app] = base / nc
		logSum += math.Log(base / nc)
		n++
	}
	if n > 0 {
		out["speedup.GMEAN"] = math.Exp(logSum / float64(n))
	}
	return out
}
