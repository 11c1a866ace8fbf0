package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// The program runs from the repository root; so do the tests.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// mustMeasure makes one sweep of a workload at seed 1.
func mustMeasure(t *testing.T, b bench, traced bool, gold golden) *run {
	t.Helper()
	r, err := measure(b, 1, 0, traced, gold)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func loadSpec(t *testing.T) *benchSpec {
	t.Helper()
	s, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny returns the workload with every cell shrunk to tiny inputs
// (first cell only when one is set), keeping fabrics and backends.
func tiny(b bench, one bool) bench {
	cells := b.cells
	b.cells = func(seed uint64) []cell {
		cs := cells(seed)
		if one {
			cs = cs[:1]
		}
		for i := range cs {
			cs[i] = shrink(cs[i])
		}
		return cs
	}
	return b
}

// TestSmokeSchema runs one tiny cell per workload through both passes
// and checks the result line: exactly the four result keys, every
// defined metric present with its unit, no computed metric missing
// from BENCHMARK.json, and no end-to-end metric at zero.
func TestSmokeSchema(t *testing.T) {
	spec := loadSpec(t)
	for _, b := range benches {
		t.Run(b.name, func(t *testing.T) {
			r := mustMeasure(t, tiny(b, true), true, nil)
			if r.failed != 0 {
				t.Fatalf("failed cells: %v", r.errs)
			}
			for _, pass := range []struct {
				defs   []metricDef
				values map[string]float64
			}{{spec.EndToEnd, endToEnd(r)}, {spec.PerLayer, perLayer(r)}} {
				metrics, err := emit(pass.defs, pass.values)
				if err != nil {
					t.Fatal(err)
				}
				for name := range pass.values {
					if _, ok := metrics[name]; !ok {
						t.Errorf("computed metric %q is not in BENCHMARK.json", name)
					}
				}
				line, err := json.Marshal(result{Correct: true, Attempted: r.attempted, Metrics: metrics})
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(line, &keys); err != nil {
					t.Fatal(err)
				}
				got := make([]string, 0, len(keys))
				for k := range keys {
					got = append(got, k)
				}
				sort.Strings(got)
				if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(got, want) {
					t.Errorf("result keys %v, want %v", got, want)
				}
			}
			for name, v := range endToEnd(r) {
				if !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, v)
				}
			}
		})
	}
}

// TestLayerAccounting runs every cell of every workload traced at tiny
// scale: each engine component must belong to a layer (groupProfile
// fails the cell otherwise), and in each cell the layers' host time
// must fit inside engine wall time, so the shares and
// sim.unattributed_share sum to 1.
func TestLayerAccounting(t *testing.T) {
	for _, b := range benches {
		t.Run(b.name, func(t *testing.T) {
			r := mustMeasure(t, tiny(b, false), true, nil)
			if r.failed != 0 {
				t.Fatalf("failed cells: %v", r.errs)
			}
			for _, cr := range r.cells {
				for _, s := range cr.traced {
					var host float64
					for _, c := range s.layers {
						host += c.host.Seconds()
					}
					if host > s.loop.Seconds() {
						t.Errorf("%s: layers charged %.6fs, engine ran %.6fs", cr.cell.name, host, s.loop.Seconds())
					}
				}
			}
			m := perLayer(r)
			sum := m["sim.unattributed_share"]
			for _, l := range layers {
				sum += m[l+".host_share"]
			}
			if b.name == "scale-flow" {
				if sum != 0 || m["sim.ticks"] != 0 {
					t.Errorf("flow workload charged engine layers: shares %v, ticks %v", sum, m["sim.ticks"])
				}
				return
			}
			if math.Abs(sum-1) > 1e-9 || m["sim.unattributed_share"] < 0 {
				t.Errorf("shares sum to %v (unattributed %v), want 1", sum, m["sim.unattributed_share"])
			}
		})
	}
}

// TestPerturbedGoldenFails records a cell's outputs as its golden,
// checks that a rerun passes, then perturbs one value: the rerun must
// count a failure.
func TestPerturbedGoldenFails(t *testing.T) {
	b := tiny(benches[1], true)
	g := golden{}
	if err := g.record(mustMeasure(t, b, false, nil)); err != nil {
		t.Fatal(err)
	}
	if r := mustMeasure(t, b, false, g); !r.checked || r.failed != 0 {
		t.Fatalf("rerun against its own golden: checked=%v failed=%d %v", r.checked, r.failed, r.errs)
	}
	for _, out := range g[b.name]["1"] {
		out["cycles"]++
	}
	r := mustMeasure(t, b, false, g)
	if r.failed == 0 || r.failed != r.attempted {
		t.Fatalf("perturbed golden: %d of %d failed, want all", r.failed, r.attempted)
	}
	if !strings.Contains(strings.Join(r.errs, "\n"), "output cycles") {
		t.Errorf("failure does not name the output: %v", r.errs)
	}
}

func benchRow(t *testing.T, path, exp, row string, col int) float64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Experiments []struct {
			ID     string `json:"id"`
			Report struct {
				Rows []struct {
					Label  string    `json:"label"`
					Values []float64 `json:"values"`
				} `json:"rows"`
			} `json:"report"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Experiments {
		if e.ID != exp {
			continue
		}
		for _, r := range e.Report.Rows {
			if r.Label == row {
				return r.Values[col]
			}
		}
	}
	t.Fatalf("%s: no %s row %s", path, exp, row)
	return 0
}

// TestGoldensMatchCommittedManifests cross-checks the committed seed-1
// goldens against the sweep manifests: the Fig-14 NetCrafter speedups
// and the ext-scale makespans of the 64-GPU fat-tree.
func TestGoldensMatchCommittedManifests(t *testing.T) {
	g, err := readGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range loadSpec(t).Workloads {
		for s := 1; s <= goldenSeeds; s++ {
			if !g.has(w.Name, uint64(s)) {
				t.Errorf("no goldens for %s seed %d", w.Name, s)
			}
		}
	}
	apps := g["apps-4gpu"]["1"]
	for _, app := range []string{"GUPS", "ATAX", "MM2"} {
		got := apps[app+"/base"]["cycles"] / apps[app+"/nc"]["cycles"]
		if want := benchRow(t, "BENCH_small.json", "fig14", app, 2); got != want {
			t.Errorf("%s NetCrafter speedup %v, fig14 has %v", app, got, want)
		}
	}
	for _, c := range []struct{ workload, cell, row string }{
		{"collective-64", "ft64/ring", "ft64/ring/cycle"},
		{"scale-flow", "ft64/ring", "ft64/ring"},
		{"scale-flow", "ft64/a2a", "ft64/a2a"},
	} {
		got := g[c.workload]["1"][c.cell]["cycles"]
		if want := benchRow(t, "BENCH_medium.json", "ext-scale", c.row, 1); got != want {
			t.Errorf("%s %s makespan %v, ext-scale %s has %v", c.workload, c.cell, got, c.row, want)
		}
	}
}

// TestGoldensReproduce reruns a slice of the real cells at seed 1 and
// checks their outputs against the committed goldens.
func TestGoldensReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full-size cells")
	}
	g, err := readGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	keep := map[string]bool{"GUPS/base": true, "GUPS/nc": true, "ATAX/nc": true, "MM2/nc": true,
		"ft64/ring": true, "ft64/a2a": true, "poisson/100k": true, "df512/tree": true}
	for _, b := range benches {
		cells := b.cells
		b.cells = func(seed uint64) []cell {
			var out []cell
			for _, c := range cells(seed) {
				if keep[c.name] {
					out = append(out, c)
				}
			}
			return out
		}
		if len(b.cells(1)) == 0 {
			continue
		}
		if r := mustMeasure(t, b, false, g); !r.checked || r.failed != 0 {
			t.Errorf("%s: checked=%v, failures %v", b.name, r.checked, r.errs)
		}
	}
}

// TestSpeedKernelsAllocateNothing pins that timing the host's speed
// adds nothing to the cells' allocation counts.
func TestSpeedKernelsAllocateNothing(t *testing.T) {
	k, err := kernels()
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func() time.Duration{"cpu": k.cpu, "mem": k.mem} {
		if n := testing.AllocsPerRun(5, func() { f() }); n != 0 {
			t.Errorf("%s kernel: %v allocations per timing", name, n)
		}
	}
}

// TestSampler runs the sampler beside some work: finish must return
// once its goroutine has ended, with at least one sample of each kernel
// and a positive scale.
func TestSampler(t *testing.T) {
	s, err := startSampler()
	if err != nil {
		t.Fatal(err)
	}
	runCell(shrink(benches[0].cells(1)[0]), false)
	s.finish()
	if len(s.cpu) == 0 || len(s.cpu) != len(s.mem) {
		t.Fatalf("%d cpu and %d mem samples", len(s.cpu), len(s.mem))
	}
	if k := s.scale(); !(k > 0) {
		t.Errorf("scale %v", k)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	for _, c := range []struct {
		name  string
		a, b  []float64
		lower bool
		floor float64
		want  string
	}{
		{"faster", steady, scaled(0.8), true, 0, "better"},
		{"slower beyond bound", steady, scaled(1.2), true, 0, "worse"},
		{"slower in every pair, within bound", steady, scaled(1.05), true, 0, "worse"},
		{"within noise", steady, scaled(1.001), true, 0, "unchanged"},
		{"higher is better", steady, scaled(1.2), false, 0, "better"},
		{"spread wider than bound", wide, scaled(0.99), true, 0, "unresolved"},
		{"every run better despite spread", wide, scaled(0.4), true, 0, "better"},
		{"slower by less than the floor", steady, scaled(1.2), true, 3, "unchanged"},
		{"faster by less than the floor", steady, scaled(0.8), true, 3, "unchanged"},
	} {
		if got, _ := verdict(c.a, c.b, c.lower, 0.1, c.floor); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestWorkloadBounds checks that -compare takes a workload's own bound
// where it has one, BENCHMARK.json's otherwise, and that no workload
// bound is looser than BENCHMARK.json's, which gates every workload.
func TestWorkloadBounds(t *testing.T) {
	spec := loadSpec(t)
	for _, b := range benches {
		for _, d := range spec.EndToEnd {
			got := boundFor(b.name, d)
			if own, ok := b.bounds[d.Name]; ok && got != own {
				t.Errorf("%s %s: bound %v, workload's own is %v", b.name, d.Name, got, own)
			}
			if got > *d.Bound {
				t.Errorf("%s %s: bound %v is looser than BENCHMARK.json's %v", b.name, d.Name, got, *d.Bound)
			}
		}
		for name := range b.bounds {
			if !slices.ContainsFunc(spec.EndToEnd, func(d metricDef) bool { return d.Name == name }) {
				t.Errorf("%s: bound for %q, which is no end-to-end metric", b.name, name)
			}
		}
	}
}

func TestCompareNeedsTwoSides(t *testing.T) {
	if _, _, err := splitSides([]string{"a/1.json", "a/2.json"}); err == nil {
		t.Error("one directory accepted")
	}
	if _, _, err := splitSides([]string{"a/1.json", "b/1.json", "c/1.json"}); err == nil {
		t.Error("three directories accepted")
	}
	a, b, err := splitSides([]string{"a/1.json", "b/1.json", "a/2.json"})
	if err != nil || len(a) != 2 || len(b) != 1 {
		t.Errorf("split = %v %v %v", a, b, err)
	}
}

func TestCLIRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--no-such-flag"},
	} {
		var out, errb bytes.Buffer
		if code := cli(args, &out, &errb); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed a result: %q", args, out.String())
		}
	}
}
