package bench

import (
	"fmt"

	"netcrafter/internal/cluster"
	"netcrafter/internal/comm"
	"netcrafter/internal/sim"
	"netcrafter/internal/workload"
)

// ext-collective exercises the communication-program subsystem on the
// baseline fabric: the collective patterns at two message sizes, then
// the open-loop serving generators across offered loads. Collective
// rows report achieved bus bandwidth; serving rows add the tail
// percentiles (p50/p99/p999) that are the headline metric for
// inference traffic — the far tail is where the non-uniform
// inter-cluster links bite first.

func init() {
	register(Experiment{ID: "ext-collective", Title: "Communication programs: collective bandwidth and serving tail latency", Fidelity: FidelityAny, Run: extCollective})
}

// commCell is one (program, scale, backend) simulation of the sweep.
// cfg, when set, replaces the baseline-fabric configuration — the
// scale-out sweep (ext-scale) builds one per fabric preset.
type commCell struct {
	label   string
	prog    string
	sc      comm.Scale
	backend cluster.Backend
	cfg     *cluster.Config
}

// commScaleFor derives the communication scale from the bench scale:
// tiny workload scales map to comm.Tiny (smoke tests stay fast),
// anything larger to comm.Small, with the sweep seed carried over.
func commScaleFor(opt Options) comm.Scale {
	sc := comm.Small()
	if opt.Scale.DataKB <= workload.Tiny().DataKB {
		sc = comm.Tiny()
	}
	if opt.Scale.Seed != 0 {
		sc.Seed = opt.Scale.Seed
	}
	return sc
}

// commCells expands the sweep matrix: collectives x {1x, 4x} message
// size, serve-poisson across QPS points, serve-burst at the middle
// load.
func commCells(opt Options) []commCell {
	base := commScaleFor(opt)
	short := map[string]string{
		"ring-allreduce": "ring",
		"tree-allreduce": "tree",
		"alltoall":       "a2a",
		"pipeline":       "pipe",
		"tensor":         "tensor",
	}
	var cells []commCell
	for _, prog := range []string{"ring-allreduce", "tree-allreduce", "alltoall", "pipeline", "tensor"} {
		for _, mult := range []int{1, 4} {
			sc := base
			sc.Bytes = base.Bytes * mult
			cells = append(cells, commCell{
				label: fmt.Sprintf("%s/%dK", short[prog], sc.Bytes>>10),
				prog:  prog,
				sc:    sc,
			})
		}
	}
	for _, qps := range []float64{5e5, 1e6, 2e6} {
		sc := base
		sc.QPS = qps
		cells = append(cells, commCell{
			label: fmt.Sprintf("poisson/%gM", qps/1e6),
			prog:  "serve-poisson",
			sc:    sc,
		})
	}
	burst := base
	burst.QPS = 1e6
	cells = append(cells, commCell{label: "burst/1M", prog: "serve-burst", sc: burst})
	return cells
}

// runCommCells fans the comm cells out through the same cell pool as
// runSuites. Comm cells do not apply Options.Shards: the comm runner
// refuses sharded systems.
func runCommCells(opt Options, cells []commCell) ([]*comm.Result, error) {
	label := func(i int) (string, int) { return cells[i].label, 0 }
	return runCells(opt, len(cells), label,
		func(i int) (*comm.Result, sim.Cycle, error) {
			c := cells[i]
			cfg := cluster.Baseline()
			if c.cfg != nil {
				cfg = *c.cfg
			}
			cfg.Backend = c.backend
			r, err := cluster.RunCommOne(cfg, c.prog, c.sc, opt.Limit)
			if r == nil {
				return nil, 0, err
			}
			return r, r.Cycles, err
		})
}

// extCollective reports one row per communication cell: makespan,
// megabytes moved, achieved bus bandwidth, and — for serving cells —
// the per-request latency tail.
func extCollective(opt Options) (*Report, error) {
	rep := &Report{ID: "ext-collective", Title: "Comm programs on the baseline fabric",
		Columns: []string{"cycles", "mbytes", "gbps", "p50", "p99", "p999"},
		Notes:   "extension: serving tails stretch with offered load; ring beats tree on bus bandwidth; tensor stays intra-cluster fast"}
	cells := commCells(opt)
	for i := range cells {
		cells[i].backend = opt.Backend
	}
	rs, err := runCommCells(opt, cells)
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		r := rs[i]
		rep.AddRow(c.label,
			float64(r.Cycles),
			float64(r.BytesMoved)/(1<<20),
			r.BusGBps(),
			float64(r.P50()),
			float64(r.P99()),
			float64(r.P999()))
	}
	return rep, nil
}
