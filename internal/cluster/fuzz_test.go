package cluster

import (
	"testing"

	"netcrafter/internal/comm"
	"netcrafter/internal/gpu"
	"netcrafter/internal/topo"
)

// FuzzBuild drives the whole path from spec bytes to a running system:
// whatever topo.Parse accepts goes through Build with NetCrafter
// enabled and then carries a short ring all-reduce through RunComm, so
// crashes between parsing and the first simulated cycles show up in
// fuzzing. Errors (a one-cluster spec, the cycle limit) are fine;
// panics are not. GPUs get one CU and one L2 bank, as in the route
// oracle: the fabric is under test, and caches would otherwise make
// every generated device cost megabytes.
func FuzzBuild(f *testing.F) {
	// topo's FuzzTopoParse valid seed: two clusters, one asymmetric
	// boundary link.
	f.Add([]byte(`{
	  "name": "ok",
	  "devices": [{"name": "gpu0", "cluster": 0}, {"name": "gpu1", "cluster": 1}],
	  "switches": [{"name": "sw0", "cluster": 0}, {"name": "sw1", "cluster": 1}],
	  "links": [
	    {"a": "gpu0", "b": "sw0", "bw": 8},
	    {"a": "gpu1", "b": "sw1", "bw": 8},
	    {"a": "sw0", "b": "sw1", "bw": 1, "bw_back": 2, "latency": 3}
	  ]
	}`))
	// A backbone switch between the clusters and an intra-cluster taper
	// (sw0 -> agg0 at half the host rate), so controllers are spliced
	// at both kinds of taper point.
	f.Add([]byte(`{
	  "name": "backbone-taper",
	  "devices": [{"name": "gpu0", "cluster": 0}, {"name": "gpu1", "cluster": 0}, {"name": "gpu2", "cluster": 1}],
	  "switches": [{"name": "sw0", "cluster": 0}, {"name": "agg0", "cluster": 0}, {"name": "sw1", "cluster": 1}, {"name": "bb"}],
	  "links": [
	    {"a": "gpu0", "b": "sw0", "bw": 8},
	    {"a": "gpu1", "b": "sw0", "bw": 8},
	    {"a": "gpu2", "b": "sw1", "bw": 8},
	    {"a": "sw0", "b": "agg0", "bw": 4},
	    {"a": "agg0", "b": "bb", "bw": 2, "bw_back": 1, "latency": 2},
	    {"a": "bb", "b": "sw1", "bw": 2}
	  ]
	}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := topo.Parse(data)
		if err != nil {
			return
		}
		cfg := WithNetCrafter().WithTopology(g)
		cfg.GPU = gpu.Config{NumCUs: 1, L2Banks: 1}
		sys, err := Build(cfg)
		if err != nil {
			return
		}
		sc := comm.Tiny()
		sc.Bytes, sc.ChunkBytes = 1<<10, 0
		_, _ = sys.RunCommByName("ring-allreduce", sc, comm.Options{}, 2_000)
	})
}
