package main

import (
	"fmt"

	"netcrafter/internal/cluster"
	"netcrafter/internal/comm"
	"netcrafter/internal/workload"
)

// A cell is one simulation the benchmark times: a fabric, the inputs
// generated for it and the backend that runs them. Exactly one of app
// and prog is set.
type cell struct {
	name string
	// preset is the topology preset; "" instantiates cfg's own fabric
	// (the Figure-2 node for the paper's configurations).
	preset string
	cfg    cluster.Config
	// app is a Table-3 application run at scale ws.
	app string
	ws  workload.Scale
	// prog is a communication program generated at scale cs (GPUs is
	// filled in from the fabric, as cluster.RunCommOne does).
	prog string
	cs   comm.Scale
}

func (c cell) flow() bool { return c.cfg.Backend == cluster.BackendFlow }

// A bench is one named workload of the benchmark: the cells of one
// sweep for a seed.
type bench struct {
	name  string
	cells func(seed uint64) []cell
	// bounds replaces BENCHMARK.json's bound of an end-to-end metric in
	// -compare where this workload's measured spread (noise.json) allows
	// a tighter one. BENCHMARK.json holds one bound per metric, so it
	// must fit the noisiest workload.
	bounds map[string]float64
}

// benches are the workloads in the order BENCHMARK.json lists them.
// Why each exists is recorded there and in README.md.
var benches = []bench{
	{"apps-4gpu", appCells, tight},
	{"collective-64", collectiveCells, tight},
	// sim_cycles_per_s spreads up to 12% here, mostly because the
	// simulated span of 1000 Poisson arrivals varies with the seed, and
	// idle cycles cost almost nothing; set-up takes about 20 ms.
	{"serving-8gpu", servingCells, map[string]float64{"wall_s": 0.10}},
	{"scale-flow", scaleCells, tight},
}

// tight are the bounds of the workloads whose host times spread at most
// 9% between runs.
var tight = map[string]float64{"wall_s": 0.10, "setup_s": 0.10, "sim_cycles_per_s": 0.10}

func benchByName(name string) (bench, error) {
	for _, b := range benches {
		if b.name == name {
			return b, nil
		}
	}
	names := make([]string, len(benches))
	for i, b := range benches {
		names[i] = b.name
	}
	return bench{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func seeded(cfg cluster.Config, seed uint64) cluster.Config {
	cfg.Seed = seed
	return cfg
}

// appCells is the paper's Fig-14 experiment: every Table-3 application
// at Small scale on the Figure-2 node, without and with NetCrafter.
func appCells(seed uint64) []cell {
	var cells []cell
	for _, app := range workload.Names() {
		cells = append(cells,
			cell{name: app + "/base", cfg: seeded(cluster.Baseline(), seed), app: app, ws: workload.Small()},
			cell{name: app + "/nc", cfg: seeded(cluster.WithNetCrafter(), seed), app: app, ws: workload.Small()})
	}
	return cells
}

func commScale(seed uint64) comm.Scale {
	sc := comm.Small()
	sc.Seed = seed
	return sc
}

// netcrafterOn returns the paper's NetCrafter configuration, seeded,
// on the named backend; the fabric comes from the cell's preset.
func netcrafterOn(backend cluster.Backend, seed uint64) cluster.Config {
	cfg := seeded(cluster.WithNetCrafter(), seed)
	cfg.Backend = backend
	return cfg
}

// collectiveCells drives dense write-only collective traffic through
// 64 RDMA engines and the multi-level controllers of both 64-GPU
// scale-out fabrics on the cycle engine.
func collectiveCells(seed uint64) []cell {
	cfg := netcrafterOn(cluster.BackendCycle, seed)
	return []cell{
		{name: "ft64/ring", preset: "fattree-64", cfg: cfg, prog: "ring-allreduce", cs: commScale(seed)},
		{name: "df64/a2a", preset: "dragonfly-64", cfg: cfg, prog: "alltoall", cs: commScale(seed)},
	}
}

// servingRequests gives each load point 1000 requests, so p99 has ten
// samples beyond it.
const servingRequests = 1000

// servingCells is open-loop serving of comm.Small's requests (eight
// 4 KB KV blocks each) at two offered loads. At 1e5 QPS the fabric
// idles between requests and the engine skips about three cycles in
// four (sim.round_frac 0.25 at seed 1); at 1e6 QPS it is saturated,
// p50 grows thirtyfold and almost no cycle is skipped (0.999). Latency
// counts from each request's due arrival, so queueing behind a stall
// is charged to later requests.
func servingCells(seed uint64) []cell {
	var cells []cell
	for _, p := range []struct {
		label string
		qps   float64
	}{{"poisson/100k", 1e5}, {"poisson/1M", 1e6}} {
		sc := commScale(seed)
		sc.Requests = servingRequests
		sc.QPS = p.qps
		cells = append(cells, cell{name: p.label, preset: "frontier-8x4",
			cfg: netcrafterOn(cluster.BackendCycle, seed), prog: "serve-poisson", cs: sc})
	}
	return cells
}

// scaleFabrics are the scale-out presets, smallest first.
var scaleFabrics = []struct{ label, preset string }{
	{"ft64", "fattree-64"}, {"df64", "dragonfly-64"},
	{"ft128", "fattree-128"}, {"df128", "dragonfly-128"},
	{"ft256", "fattree-256"}, {"df256", "dragonfly-256"},
	{"ft512", "fattree-512"}, {"df512", "dragonfly-512"},
}

// scaleCells solves every collective on every scale-out fabric with
// the flow backend; no cycle engine runs.
func scaleCells(seed uint64) []cell {
	progs := []struct{ short, name string }{
		{"ring", "ring-allreduce"}, {"tree", "tree-allreduce"}, {"a2a", "alltoall"},
		{"pipe", "pipeline"}, {"tensor", "tensor"},
	}
	cfg := netcrafterOn(cluster.BackendFlow, seed)
	var cells []cell
	for _, f := range scaleFabrics {
		for _, p := range progs {
			cells = append(cells, cell{name: f.label + "/" + p.short, preset: f.preset,
				cfg: cfg, prog: p.name, cs: commScale(seed)})
		}
	}
	return cells
}

// shrink gives a cell tiny inputs on the same fabric and backend: the
// untimed warm-up before a workload is its first cell shrunk, so code
// paths and the allocator are warm before anything is measured.
func shrink(c cell) cell {
	c.ws = workload.Tiny()
	sc := comm.Tiny()
	sc.Seed = c.cs.Seed
	c.cs = sc
	return c
}
