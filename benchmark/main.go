// Command benchmark is the repository's performance benchmark: it
// times the simulator's layers from outside on four workloads, checks
// the simulated outputs, and prints every metric BENCHMARK.json
// defines. Run it from the repository root:
//
//	bash benchmark/run.sh --workload apps-4gpu --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh -compare before/*.json after/*.json
//
// See README.md for the workloads, the metrics and how to check a
// performance claim.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// Paths relative to the repository root, where the program runs.
const (
	specPath   = "BENCHMARK.json"
	goldenPath = "benchmark/golden.json"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workloadName := fl.String("workload", "all", "workload to measure, or all")
	seed := fl.Uint64("seed", 1, "seed for the generated inputs")
	seconds := fl.Float64("seconds", 0, "measure for this long (0: one sweep)")
	trace := fl.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, with a traced pass")
	jsonPath := fl.String("json", "", "also write the full per-workload reports to this file")
	writeGolden := fl.Bool("write-golden", false, fmt.Sprintf("record the outputs of seeds 1-%d into %s", goldenSeeds, goldenPath))
	compare := fl.Bool("compare", false, "compare two sets of -json reports: -compare A/*.json B/*.json")
	summary := fl.Bool("summary", false, "print median and quartiles of -json reports: -summary A/*.json")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	spec, err := readSpec(specPath)
	if err != nil {
		return fail(err)
	}
	switch {
	case *compare:
		if err := compareReports(spec, fl.Args(), stdout); err != nil {
			return fail(err)
		}
		return 0
	case *summary:
		if err := summarize(spec, fl.Args(), stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	todo := benches
	if *workloadName != "all" {
		b, err := benchByName(*workloadName)
		if err != nil {
			return fail(err)
		}
		todo = []bench{b}
	}
	gold, err := readGolden(goldenPath)
	if err != nil {
		return fail(err)
	}
	if *writeGolden {
		for _, b := range todo {
			for s := uint64(1); s <= goldenSeeds; s++ {
				r, err := measure(b, s, 0, false, nil)
				if err != nil {
					return fail(err)
				}
				if err := gold.record(r); err != nil {
					return fail(err)
				}
				fmt.Fprintf(stderr, "recorded %s seed %d\n", b.name, s)
			}
		}
		if err := gold.write(goldenPath); err != nil {
			return fail(err)
		}
		return 0
	}

	var reports []report
	for _, b := range todo {
		r, err := measure(b, *seed, *seconds, *trace == 1, gold)
		if err != nil {
			return fail(err)
		}
		defs, values := spec.EndToEnd, endToEnd(r)
		if *trace == 1 {
			defs, values = spec.PerLayer, perLayer(r)
		}
		metrics, err := emit(defs, values)
		if err != nil {
			return fail(err)
		}
		rep := newReport(r, *seconds, *trace, metrics)
		for _, e := range rep.Errors {
			fmt.Fprintln(stderr, "FAIL", b.name, e)
		}
		printSummary(stdout, &rep, defs)
		line, err := json.Marshal(rep.result)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(line))
		reports = append(reports, rep)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	return 0
}

func newReport(r *run, seconds float64, trace int, metrics map[string]metricValue) report {
	rep := report{
		Workload: r.bench.name, Seed: r.seed, Seconds: seconds, Trace: trace,
		Golden:     "checked",
		Host:       thisHost(),
		Scale:      r.scale,
		result:     result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics},
		Executions: map[string][2]int{},
		Out:        outputs(r),
		Errors:     r.errs,
	}
	if !r.checked {
		rep.Golden = fmt.Sprintf("not checked: no goldens for seed %d, invariants only", r.seed)
	}
	for _, cr := range r.cells {
		rep.Executions[cr.cell.name] = [2]int{len(cr.plain), len(cr.traced)}
	}
	return rep
}

// printSummary writes the human-readable lines that precede the
// result line.
func printSummary(w io.Writer, rep *report, defs []metricDef) {
	n := 0
	for _, e := range rep.Executions {
		n += e[0] + e[1]
	}
	fmt.Fprintf(w, "%s seed %d trace %d: %d cells, %d executions, %d failed; outputs %s; %s, GOMAXPROCS %d\n",
		rep.Workload, rep.Seed, rep.Trace, len(rep.Executions), n, rep.Failed, rep.Golden, rep.Host.Go, rep.Host.GOMAXPROCS)
	for _, d := range defs {
		m := rep.Metrics[d.Name]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, m.Value, m.Unit)
	}
}
