package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// readReports loads -json files, keeping the reports of one trace
// mode grouped by workload in file order.
func readReports(files []string, trace int) (map[string][]report, error) {
	out := map[string][]report{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var reps []report
		if err := json.Unmarshal(data, &reps); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range reps {
			if r.Trace == trace {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
	}
	return out, nil
}

func values(reps []report, metric string) []float64 {
	xs := make([]float64, 0, len(reps))
	for _, r := range reps {
		if m, ok := r.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// setupFloor is the smallest set-up time difference -compare counts:
// a workload whose set-up takes a few milliseconds would otherwise read
// worse or better on a millisecond.
const setupFloor = 0.02

// verdict applies the rules for a claimed change to one workload and
// end-to-end metric, with a the parent's runs and b the change's,
// paired by position; floor is the smallest difference that counts.
// It is worse when b's median is worse than a's by more than the bound
// (a share of a's median, and at least floor). When a's own spread
// (distance between quartiles) exceeds the bound, it is better only if
// every run of b beats every run of a, and unresolved otherwise. Else
// it is better (worse) when b wins (loses) at least nine tenths of the
// pairs, ties counting for neither, and the medians differ by more
// than a's quartile distance and floor, and unchanged otherwise.
func verdict(a, b []float64, lowerBetter bool, bound, floor float64) (v string, wins float64) {
	sign := 1.0
	if lowerBetter {
		sign = -1
	}
	// gain > 0 means x is better than y.
	gain := func(x, y float64) float64 { return sign * (x - y) }
	pairs := min(len(a), len(b))
	won, lost := 0, 0
	for i := 0; i < pairs; i++ {
		switch g := gain(b[i], a[i]); {
		case g > 0:
			won++
		case g < 0:
			lost++
		}
	}
	var losses float64
	if pairs > 0 {
		wins = float64(won) / float64(pairs)
		losses = float64(lost) / float64(pairs)
	}
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && gain(y, x) > 0
		}
	}
	tol := max(bound*math.Abs(ma), floor)
	moved := max(q3-q1, floor)
	switch {
	case -gain(mb, ma) > tol:
		return "worse", wins
	case q3-q1 > tol:
		if allBetter {
			return "better", wins
		}
		return "unresolved", wins
	case losses >= 0.9 && -gain(mb, ma) > moved:
		return "worse", wins
	case wins >= 0.9 && gain(mb, ma) > moved:
		return "better", wins
	}
	return "unchanged", wins
}

// boundFor is the bound -compare applies to one workload and metric:
// the workload's own where it has one, else BENCHMARK.json's.
func boundFor(workload string, d metricDef) float64 {
	if b, err := benchByName(workload); err == nil {
		if v, ok := b.bounds[d.Name]; ok {
			return v
		}
	}
	if d.Bound != nil {
		return *d.Bound
	}
	return 0
}

// splitSides groups files by directory: the first directory named is
// the parent's side, the second the change's.
func splitSides(files []string) (a, b []string, err error) {
	var dirs []string
	for _, f := range files {
		d := filepath.Dir(f)
		if !slices.Contains(dirs, d) {
			dirs = append(dirs, d)
		}
		if d == dirs[0] {
			a = append(a, f)
		} else {
			b = append(b, f)
		}
	}
	if len(dirs) != 2 {
		return nil, nil, fmt.Errorf("-compare takes reports from exactly two directories (A/*.json B/*.json), got %d", len(dirs))
	}
	return a, b, nil
}

// compareReports prints, per workload and end-to-end metric, each
// side's median and quartiles, the change's win fraction and the
// verdict, and compares failure fractions separately.
func compareReports(spec *benchSpec, files []string, w io.Writer) error {
	fa, fb, err := splitSides(files)
	if err != nil {
		return err
	}
	ra, err := readReports(fa, 0)
	if err != nil {
		return err
	}
	rb, err := readReports(fb, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s (%d files), B = %s (%d files)\n", filepath.Dir(fa[0]), len(fa), filepath.Dir(fb[0]), len(fb))
	fmt.Fprintf(w, "%-14s %-18s %13s %25s %13s %25s %7s %5s %5s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B/A", "wins", "bound", "verdict")
	for _, sw := range spec.Workloads {
		as, bs := ra[sw.Name], rb[sw.Name]
		if len(as) == 0 || len(bs) == 0 {
			continue
		}
		for _, d := range spec.EndToEnd {
			a, b := values(as, d.Name), values(bs, d.Name)
			bound, floor := boundFor(sw.Name, d), 0.0
			if d.Name == "setup_s" {
				floor = setupFloor
			}
			v, wins := verdict(a, b, d.Better == "lower", bound, floor)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			fmt.Fprintf(w, "%-14s %-18s %13.6g [%11.5g, %11.5g] %13.6g [%11.5g, %11.5g] %7.4f %5.2f %5.2f  %s\n",
				sw.Name, d.Name, median(a), a1, a3, median(b), b1, b3, ratio(median(b), median(a)), wins, bound, v)
		}
		failA, failB := failFrac(as), failFrac(bs)
		v := "unchanged"
		if failB > failA {
			v = "worse"
		} else if failB < failA {
			v = "better"
		}
		fmt.Fprintf(w, "%-14s %-18s %13.6g %25s %13.6g %25s %7s %5s %5s  %s\n",
			sw.Name, "fail_frac", failA, "", failB, "", "", "", "0", v)
	}
	return nil
}

func failFrac(reps []report) float64 {
	var att, failed int
	for _, r := range reps {
		att += r.Attempted
		failed += r.Failed
	}
	return ratio(float64(failed), float64(att))
}

// spread is one metric's run-to-run variation over a set of reports.
type spread struct {
	N        int     `json:"n"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	IQRShare float64 `json:"iqr_share"`
	// Bound is the bound -compare applies (end-to-end metrics only).
	Bound float64 `json:"bound,omitempty"`
}

// noise is one workload's variation over a set of reports.
type noise struct {
	Host     host              `json:"host"`
	FailFrac float64           `json:"fail_frac"`
	Metrics  map[string]spread `json:"metrics"`
}

// summarize prints, per workload and metric of either kind, the
// median, quartiles and quartile distance as a share of the median
// over a set of -json reports: the benchmark's noise record.
func summarize(spec *benchSpec, files []string, w io.Writer) error {
	out := map[string]*noise{}
	for trace, defs := range [][]metricDef{spec.EndToEnd, spec.PerLayer} {
		reps, err := readReports(files, trace)
		if err != nil {
			return err
		}
		for name, rs := range reps {
			n := out[name]
			if n == nil {
				n = &noise{Host: rs[0].Host, Metrics: map[string]spread{}}
				out[name] = n
			}
			n.FailFrac = max(n.FailFrac, failFrac(rs))
			for _, d := range defs {
				xs := values(rs, d.Name)
				q1, q3 := quartiles(xs)
				m := median(xs)
				s := spread{N: len(xs), Median: m, Q1: q1, Q3: q3, IQRShare: ratio(q3-q1, math.Abs(m))}
				if trace == 0 {
					s.Bound = boundFor(name, d)
				}
				n.Metrics[d.Name] = s
			}
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}
