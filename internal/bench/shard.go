package bench

import (
	"reflect"

	"netcrafter/internal/cluster"
)

// The engine-sharding experiment. Every other experiment reports what
// the simulated system does; ext-shard reports that the partitioned
// wake engine (internal/shard, DESIGN.md section 2.15) does the SAME
// thing: each configuration runs serial and again at Shards=2, and the
// "equal" column certifies the full results match bit for bit. The
// equivalence claim is thereby re-proven inside every regenerated
// manifest, not only in the test suite.

func init() {
	register(Experiment{ID: "ext-shard", Title: "Partitioned-engine equivalence: serial vs 2-shard runs", Fidelity: FidelityCycle, Run: extShard})
}

// shardWorkloads is the exercised subset: two irregular access
// patterns (GUPS, SPMV) and two streaming ones (BS, MT) cover both
// boundary-traffic shapes without re-running the whole suite twice.
var shardWorkloads = []string{"GUPS", "SPMV", "BS", "MT"}

func extShard(opt Options) (*Report, error) {
	wls := make([]string, 0, len(shardWorkloads))
	have := map[string]bool{}
	for _, w := range opt.Workloads {
		have[w] = true
	}
	for _, w := range shardWorkloads {
		if have[w] {
			wls = append(wls, w)
		}
	}
	if len(wls) == 0 {
		wls = shardWorkloads
	}
	opt.Workloads = wls

	// Shards is pinned per configuration (1 and 2) so a sweep-wide
	// Options.Shards override cannot collapse the comparison.
	serialBase, serialNC := cluster.Baseline(), cluster.WithNetCrafter()
	serialBase.Shards, serialNC.Shards = 1, 1
	shardBase, shardNC := cluster.Baseline(), cluster.WithNetCrafter()
	shardBase.Shards, shardNC.Shards = 2, 2
	rs, err := runSuites(opt, serialBase, serialNC, shardBase, shardNC)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "ext-shard", Title: "Serial vs 2-shard partitioned engine (reports must match)",
		Columns: []string{"base-cycles", "base-sh2", "nc-cycles", "nc-sh2", "equal"},
		Notes:   "every pair identical (equal=1): partitioning is a host-side optimization, not a model change"}
	for _, w := range wls {
		eq := 1.0
		if !reflect.DeepEqual(rs[0][w], rs[2][w]) || !reflect.DeepEqual(rs[1][w], rs[3][w]) {
			eq = 0
		}
		rep.AddRow(w, float64(rs[0][w].Cycles), float64(rs[2][w].Cycles),
			float64(rs[1][w].Cycles), float64(rs[3][w].Cycles), eq)
	}
	return rep, nil
}
