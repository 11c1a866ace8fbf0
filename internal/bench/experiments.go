package bench

import (
	"netcrafter/internal/cluster"
	"netcrafter/internal/core"
	"netcrafter/internal/gpu"
	"netcrafter/internal/sim"
)

// Configuration shorthands used across experiments.

func ncConfig(mod func(*core.Config)) cluster.Config {
	c := cluster.Baseline()
	mod(&c.NetCrafter)
	return c
}

func stitchOnly() cluster.Config {
	return ncConfig(func(n *core.Config) { n.EnableStitch = true })
}

func stitchPool(window sim.Cycle, selective bool) cluster.Config {
	return ncConfig(func(n *core.Config) {
		n.EnableStitch = true
		n.PoolingCycles = window
		n.SelectivePooling = selective
	})
}

func trimOnly() cluster.Config {
	return ncConfig(func(n *core.Config) { n.EnableTrim = true })
}

func stitchTrim() cluster.Config {
	c := stitchPool(32, true)
	c.NetCrafter.EnableTrim = true
	return c
}

func sectorCache(granularity int) cluster.Config {
	c := cluster.Baseline()
	c.GPU.FetchMode = gpu.FetchSector
	c.GPU.TrimBytes = granularity
	return c
}

func withFlitSize(c cluster.Config, bytes int) cluster.Config {
	c.GPU.FlitBytes = bytes
	return c
}

func init() {
	register(Experiment{ID: "fig3", Title: "Non-uniform baseline vs ideal all-high-bandwidth speedup", Fidelity: FidelityCycle, Run: fig3})
	register(Experiment{ID: "fig4", Title: "Inter-cluster network utilization, non-uniform vs ideal", Fidelity: FidelityCycle, Run: fig4})
	register(Experiment{ID: "fig5", Title: "Inter-cluster memory latency, ideal normalized to non-uniform", Fidelity: FidelityCycle, Run: fig5})
	register(Experiment{ID: "fig6", Title: "Flit occupancy distribution on the inter-cluster network", Fidelity: FidelityCycle, Run: fig6})
	register(Experiment{ID: "fig7", Title: "Inter-cluster read requests by bytes needed from the line", Fidelity: FidelityCycle, Run: fig7})
	register(Experiment{ID: "fig8", Title: "Prioritizing PTW-related vs equal-count data accesses", Fidelity: FidelityCycle, Run: fig8})
	register(Experiment{ID: "fig9", Title: "PTW vs data share of inter-cluster traffic", Fidelity: FidelityCycle, Run: fig9})
	register(Experiment{ID: "fig12", Title: "Fraction of flits stitched, with and without Flit Pooling", Fidelity: FidelityCycle, Run: fig12})
	register(Experiment{ID: "fig14", Title: "Overall NetCrafter speedup and sector-cache comparison", Fidelity: FidelityCycle, Run: fig14})
	register(Experiment{ID: "fig15", Title: "Inter-cluster memory latency, NetCrafter vs baseline", Fidelity: FidelityCycle, Run: fig15})
	register(Experiment{ID: "fig16", Title: "L1 MPKI: NetCrafter trimming vs 16B sector cache", Fidelity: FidelityCycle, Run: fig16})
	register(Experiment{ID: "fig17", Title: "GEMM L1 MPKI vs trimming/sector granularity 4/8/16B", Fidelity: FidelityCycle, Run: fig17})
	register(Experiment{ID: "fig18", Title: "Stitching with plain Flit Pooling, 32-128 cycle windows", Fidelity: FidelityCycle, Run: fig18})
	register(Experiment{ID: "fig19", Title: "Stitching with Selective Flit Pooling, 32-128 cycle windows", Fidelity: FidelityCycle, Run: fig19})
	register(Experiment{ID: "fig20", Title: "Inter-cluster byte reduction from stitching and pooling", Fidelity: FidelityCycle, Run: fig20})
	register(Experiment{ID: "fig21", Title: "Stitching + Selective Pooling at 8B vs 16B flit size", Fidelity: FidelityCycle, Run: fig21})
	register(Experiment{ID: "fig22", Title: "NetCrafter speedup across bandwidth ratios and values", Fidelity: FidelityCycle, Run: fig22})
}

func fig3(opt Options) (*Report, error) {
	rs, err := runSuites(opt, cluster.Baseline(), cluster.Ideal())
	if err != nil {
		return nil, err
	}
	base, ideal := rs[0], rs[1]
	rep := &Report{ID: "fig3", Title: "Ideal/high-bandwidth speedup over non-uniform baseline",
		Columns: []string{"ideal-speedup"},
		Notes:   "ideal averages ~1.5x; network-bound workloads gain most"}
	for _, w := range opt.Workloads {
		rep.AddRow(w, speedup(base[w], ideal[w]))
	}
	rep.Mean()
	return rep, nil
}

func fig4(opt Options) (*Report, error) {
	rs, err := runSuites(opt, cluster.Baseline(), cluster.Ideal())
	if err != nil {
		return nil, err
	}
	base, ideal := rs[0], rs[1]
	rep := &Report{ID: "fig4", Title: "Inter-cluster link utilization",
		Columns: []string{"non-uniform", "ideal"},
		Notes:   "non-uniform runs near saturation on network-bound workloads; ideal far lower"}
	for _, w := range opt.Workloads {
		rep.AddRow(w, base[w].InterUtilization, ideal[w].InterUtilization)
	}
	return rep, nil
}

func fig5(opt Options) (*Report, error) {
	rs, err := runSuites(opt, cluster.Baseline(), cluster.Ideal())
	if err != nil {
		return nil, err
	}
	base, ideal := rs[0], rs[1]
	rep := &Report{ID: "fig5", Title: "Mean inter-cluster read latency, normalized to non-uniform",
		Columns: []string{"non-uniform", "ideal"},
		Notes:   "ideal latency well below 1.0 for network-bound workloads"}
	for _, w := range opt.Workloads {
		n := base[w].InterReadLatency
		if n == 0 {
			rep.AddRow(w, 1, 0)
			continue
		}
		rep.AddRow(w, 1, ideal[w].InterReadLatency/n)
	}
	return rep, nil
}

func fig6(opt Options) (*Report, error) {
	base, err := runSuite(cluster.Baseline(), opt)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig6", Title: "Flit occupancy classes (share of inter-cluster flits)",
		Columns: []string{"full", "pad25", "pad75"},
		Notes:   "on average ~42% of flits carry 25% or 75% padding"}
	for _, w := range opt.Workloads {
		occ := base[w].Net.Occupancy
		rep.AddRow(w, occ.Share("full"), occ.Share("pad25"), occ.Share("pad75"))
	}
	return rep, nil
}

func fig7(opt Options) (*Report, error) {
	base, err := runSuite(cluster.Baseline(), opt)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig7", Title: "Inter-cluster reads by bytes needed from the 64B line",
		Columns: []string{"le16", "le32", "le48", "le64"},
		Notes:   "random/gather workloads need <=16B for most reads; adjacent/partitioned need the full line"}
	for _, w := range opt.Workloads {
		h := base[w].BytesNeeded
		rep.AddRow(w, h.Share("le16"), h.Share("le32"), h.Share("le48"), h.Share("le64"))
	}
	return rep, nil
}

func fig8(opt Options) (*Report, error) {
	rs, err := runSuites(opt,
		cluster.Baseline(),
		ncConfig(func(n *core.Config) { n.Sequencing = core.SeqPTW }),
		ncConfig(func(n *core.Config) { n.Sequencing = core.SeqDataEqual }))
	if err != nil {
		return nil, err
	}
	base, ptw, data := rs[0], rs[1], rs[2]
	rep := &Report{ID: "fig8", Title: "Speedup from prioritizing PTW vs equal-count data accesses",
		Columns: []string{"prioritize-ptw", "prioritize-data"},
		Notes:   "PTW prioritization helps; prioritizing the same number of data accesses does not"}
	for _, w := range opt.Workloads {
		rep.AddRow(w, speedup(base[w], ptw[w]), speedup(base[w], data[w]))
	}
	rep.Mean()
	return rep, nil
}

func fig9(opt Options) (*Report, error) {
	base, err := runSuite(cluster.Baseline(), opt)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig9", Title: "Share of inter-cluster flits that are PTW-related",
		Columns: []string{"ptw-share", "data-share"},
		Notes:   "PTW-related accesses average ~13% of inter-cluster traffic"}
	for _, w := range opt.Workloads {
		s := base[w].Net.PTWShare()
		rep.AddRow(w, s, 1-s)
	}
	return rep, nil
}

func fig12(opt Options) (*Report, error) {
	rs, err := runSuites(opt, stitchOnly(), stitchPool(32, true))
	if err != nil {
		return nil, err
	}
	plain, pooled := rs[0], rs[1]
	rep := &Report{ID: "fig12", Title: "Fraction of inter-cluster flits carrying stitched content",
		Columns: []string{"stitch-only", "with-pooling"},
		Notes:   "Flit Pooling significantly raises the stitched fraction"}
	for _, w := range opt.Workloads {
		rep.AddRow(w, plain[w].Net.StitchRate(), pooled[w].Net.StitchRate())
	}
	return rep, nil
}

func fig14(opt Options) (*Report, error) {
	rs, err := runSuites(opt,
		cluster.Baseline(), stitchPool(32, true), stitchTrim(),
		cluster.WithNetCrafter(), sectorCache(16))
	if err != nil {
		return nil, err
	}
	base, st, tr, full, sector := rs[0], rs[1], rs[2], rs[3], rs[4]
	rep := &Report{ID: "fig14", Title: "Speedup over the non-uniform baseline",
		Columns: []string{"stitch", "stitch+trim", "netcrafter", "sector-cache"},
		Notes:   "NetCrafter: up to ~1.64x, ~1.16x average; sector cache wins only on fine-grained random workloads"}
	for _, w := range opt.Workloads {
		rep.AddRow(w,
			speedup(base[w], st[w]),
			speedup(base[w], tr[w]),
			speedup(base[w], full[w]),
			speedup(base[w], sector[w]))
	}
	rep.Mean()
	return rep, nil
}

func fig15(opt Options) (*Report, error) {
	rs, err := runSuites(opt, cluster.Baseline(), cluster.WithNetCrafter())
	if err != nil {
		return nil, err
	}
	base, full := rs[0], rs[1]
	rep := &Report{ID: "fig15", Title: "Mean inter-cluster read latency, NetCrafter normalized to baseline",
		Columns: []string{"baseline", "netcrafter"},
		Notes:   "NetCrafter reduces inter-cluster latency on network-bound workloads"}
	for _, w := range opt.Workloads {
		n := base[w].InterReadLatency
		if n == 0 {
			rep.AddRow(w, 1, 0)
			continue
		}
		rep.AddRow(w, 1, full[w].InterReadLatency/n)
	}
	return rep, nil
}

func fig16(opt Options) (*Report, error) {
	rs, err := runSuites(opt, cluster.Baseline(), cluster.WithNetCrafter(), sectorCache(16))
	if err != nil {
		return nil, err
	}
	base, nc, sector := rs[0], rs[1], rs[2]
	rep := &Report{ID: "fig16", Title: "L1 MPKI",
		Columns: []string{"baseline", "netcrafter-trim", "sector-16B"},
		Notes:   "sector cache raises MPKI on coarse-grained workloads; NetCrafter trims only inter-cluster so stays lower"}
	for _, w := range opt.Workloads {
		rep.AddRow(w, base[w].L1MPKI(), nc[w].L1MPKI(), sector[w].L1MPKI())
	}
	return rep, nil
}

func fig17(opt Options) (*Report, error) {
	// The paper studies large GEMM kernels; MM2 is the suite's GEMM.
	opt.Workloads = []string{"MM2"}
	rep := &Report{ID: "fig17", Title: "GEMM L1 MPKI vs granularity",
		Columns: []string{"netcrafter-trim", "all-trim-sector"},
		Notes:   "trimming beats all-trimming at every granularity; MPKI falls as granularity grows"}
	grans := []int{4, 8, 16}
	cfgs := make([]cluster.Config, 0, 2*len(grans))
	for _, g := range grans {
		nc := cluster.WithNetCrafter()
		nc.GPU.TrimBytes = g
		cfgs = append(cfgs, nc, sectorCache(g))
	}
	rs, err := runSuites(opt, cfgs...)
	if err != nil {
		return nil, err
	}
	for i, g := range grans {
		rep.AddRow(fmt16(g), rs[2*i]["MM2"].L1MPKI(), rs[2*i+1]["MM2"].L1MPKI())
	}
	return rep, nil
}

func fmt16(g int) string {
	switch g {
	case 4:
		return "4B"
	case 8:
		return "8B"
	default:
		return "16B"
	}
}

func poolingSweep(id, title string, selective bool, opt Options) (*Report, error) {
	rs, err := runSuites(opt,
		cluster.Baseline(), stitchOnly(),
		stitchPool(32, selective), stitchPool(64, selective),
		stitchPool(96, selective), stitchPool(128, selective))
	if err != nil {
		return nil, err
	}
	base, st := rs[0], rs[1]
	rep := &Report{ID: id, Title: title,
		Columns: []string{"stitch", "pool32", "pool64", "pool96", "pool128"},
		Notes:   "32 cycles is the sweet spot; larger windows add latency without more stitching"}
	for _, w := range opt.Workloads {
		rep.AddRow(w,
			speedup(base[w], st[w]),
			speedup(base[w], rs[2][w]),
			speedup(base[w], rs[3][w]),
			speedup(base[w], rs[4][w]),
			speedup(base[w], rs[5][w]))
	}
	rep.Mean()
	return rep, nil
}

func fig18(opt Options) (*Report, error) {
	return poolingSweep("fig18", "Speedup: stitching with plain Flit Pooling", false, opt)
}

func fig19(opt Options) (*Report, error) {
	return poolingSweep("fig19", "Speedup: stitching with Selective Flit Pooling", true, opt)
}

func fig20(opt Options) (*Report, error) {
	rs, err := runSuites(opt,
		cluster.Baseline(), stitchOnly(),
		stitchPool(32, true), stitchPool(64, true),
		stitchPool(96, true), stitchPool(128, true))
	if err != nil {
		return nil, err
	}
	base, st := rs[0], rs[1]
	rep := &Report{ID: "fig20", Title: "Inter-cluster wire bytes normalized to baseline",
		Columns: []string{"stitch", "pool32", "pool64", "pool96", "pool128"},
		Notes:   "stitching saves bytes; selective pooling saves more, flattening past 32 cycles"}
	norm := func(b, n *cluster.Result) float64 {
		if b.Net.WireBytes.Value() == 0 {
			return 1
		}
		return float64(n.Net.WireBytes.Value()) / float64(b.Net.WireBytes.Value())
	}
	for _, w := range opt.Workloads {
		rep.AddRow(w,
			norm(base[w], st[w]),
			norm(base[w], rs[2][w]),
			norm(base[w], rs[3][w]),
			norm(base[w], rs[4][w]),
			norm(base[w], rs[5][w]))
	}
	return rep, nil
}

func fig21(opt Options) (*Report, error) {
	rep := &Report{ID: "fig21", Title: "Stitch + Selective Pooling speedup at 8B and 16B flits",
		Columns: []string{"8B-flit", "16B-flit"},
		Notes:   "stitching still helps at 8B flits but less than at 16B"}
	rs, err := runSuites(opt,
		withFlitSize(cluster.Baseline(), 8), withFlitSize(stitchPool(32, true), 8),
		withFlitSize(cluster.Baseline(), 16), withFlitSize(stitchPool(32, true), 16))
	if err != nil {
		return nil, err
	}
	vals := map[int]map[string]float64{}
	for i, fb := range []int{8, 16} {
		base, st := rs[2*i], rs[2*i+1]
		vals[fb] = map[string]float64{}
		for _, w := range opt.Workloads {
			vals[fb][w] = speedup(base[w], st[w])
		}
	}
	for _, w := range opt.Workloads {
		rep.AddRow(w, vals[8][w], vals[16][w])
	}
	rep.Mean()
	return rep, nil
}

func fig22(opt Options) (*Report, error) {
	type bwCase struct {
		label        string
		intra, inter int
	}
	cases := []bwCase{
		{"128:16", 128, 16},
		{"128:32", 128, 32},
		{"128:64", 128, 64},
		{"256:32", 256, 32},
		{"512:64", 512, 64},
		{"32:32", 32, 32},
	}
	rep := &Report{ID: "fig22", Title: "NetCrafter speedup across bandwidth configurations (GMEAN over workloads)",
		Columns: []string{"netcrafter-speedup"},
		Notes:   "gains persist across every ratio, largest when the network is most constrained"}
	cfgs := make([]cluster.Config, 0, 2*len(cases))
	for _, cs := range cases {
		base := cluster.Baseline()
		base.IntraGBps, base.InterGBps = cs.intra, cs.inter
		nc := cluster.WithNetCrafter()
		nc.IntraGBps, nc.InterGBps = cs.intra, cs.inter
		cfgs = append(cfgs, base, nc)
	}
	rs, err := runSuites(opt, cfgs...)
	if err != nil {
		return nil, err
	}
	for i, cs := range cases {
		bres, nres := rs[2*i], rs[2*i+1]
		sp := make([]float64, 0, len(opt.Workloads))
		for _, w := range opt.Workloads {
			sp = append(sp, speedup(bres[w], nres[w]))
		}
		rep.AddRow(cs.label, geoMean(sp))
	}
	return rep, nil
}

func geoMean(xs []float64) float64 {
	pos := xs[:0]
	for _, x := range xs {
		if x > 0 {
			pos = append(pos, x)
		}
	}
	if len(pos) == 0 {
		return 0
	}
	// stats.GeoMean panics on non-positive values; filtered above.
	return statsGeoMean(pos)
}
