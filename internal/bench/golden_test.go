package bench

import (
	"os"
	"strings"
	"testing"

	"netcrafter/internal/workload"
)

// The golden determinism pin: the wake-scheduled engine (and any future
// engine change) must reproduce the committed small-sweep artifacts
// exactly. The fig3 experiment at small scale is re-run here and its
// simulated-cycle total and full report text are compared against
// BENCH_small.json and results_small.txt byte for byte. A mismatch
// means the engine's processed-cycle sequence — and therefore
// arbitration order — changed; that is a correctness bug, not drift.

// goldenExperiments are the pinned small-scale subset: fig3 is the
// headline network-bound experiment; fig17 is a cheap second opinion
// exercising a different report shape. Every experiment is pinned at
// tiny scale by TestEveryExperimentRunsAtMicroScale, and the whole
// small sweep by `make sweep-check`.
var goldenExperiments = []string{"fig3", "fig17"}

// TestEveryExperimentRunsAtMicroScale re-derives every registered
// experiment at tiny scale and compares its report with its section
// of results_tiny.txt (`netcrafter-bench -exp all -scale tiny
// -manifest off -q`) byte for byte, so a change to any experiment's
// output fails the tier-1 suite. Every registered id needs a section
// and every section an id. Each report must also export as JSON.
func TestEveryExperimentRunsAtMicroScale(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny sweep skipped in -short mode")
	}
	raw, err := os.ReadFile("../../results_tiny.txt")
	if err != nil {
		t.Fatalf("committed tiny sweep missing: %v", err)
	}
	txt := string(raw)

	registered := map[string]bool{}
	for _, id := range IDs() {
		registered[id] = true
	}
	for _, line := range strings.Split(txt, "\n") {
		if id, ok := strings.CutPrefix(line, "== "); ok {
			id, _, _ = strings.Cut(id, ":")
			if !registered[id] {
				t.Errorf("results_tiny.txt has a section for unregistered experiment %q", id)
			}
		}
	}

	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			want := extractSection(txt, id)
			if want == "" {
				t.Fatalf("results_tiny.txt has no %s section", id)
			}
			rep, err := Run(id, Options{Scale: workload.Tiny()})
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.String(); got != want {
				t.Errorf("report diverged from results_tiny.txt:\n--- committed\n%s\n--- got\n%s", want, got)
			}
			var sb strings.Builder
			if err := rep.WriteJSON(&sb); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGoldenSmallSweepPin(t *testing.T) {
	if testing.Short() {
		t.Skip("small-scale experiments take several seconds")
	}

	f, err := os.Open("../../BENCH_small.json")
	if err != nil {
		t.Fatalf("committed manifest missing: %v", err)
	}
	defer f.Close()
	traj, err := ReadTrajectory(f)
	if err != nil {
		t.Fatalf("parse BENCH_small.json: %v", err)
	}
	txt, err := os.ReadFile("../../results_small.txt")
	if err != nil {
		t.Fatalf("committed results missing: %v", err)
	}

	for _, id := range goldenExperiments {
		t.Run(id, func(t *testing.T) {
			want := traj.Entry(id)
			if want == nil {
				t.Fatalf("BENCH_small.json has no %s entry", id)
			}
			rep, st, err := RunMeasured(id, Options{
				Scale:     workload.Small(),
				Workloads: traj.Workloads,
			})
			if err != nil {
				t.Fatal(err)
			}

			if st.SimCycles != want.SimCycles {
				t.Errorf("%s small: simulated %d cycles, manifest pins %d — engine determinism broken",
					id, st.SimCycles, want.SimCycles)
			}
			if st.Cells != want.Cells {
				t.Errorf("%s small: ran %d cells, manifest pins %d", id, st.Cells, want.Cells)
			}

			got := rep.String()
			if wantRep := want.Report.String(); got != wantRep {
				t.Errorf("report diverged from BENCH_small.json:\n--- manifest\n%s\n--- got\n%s", wantRep, got)
			}

			// results_small.txt is the concatenation of the sweep's
			// report strings; pin our section byte for byte as well.
			section := extractSection(string(txt), id)
			if section == "" {
				t.Fatalf("results_small.txt has no %s section", id)
			}
			if section != got {
				t.Errorf("report diverged from results_small.txt:\n--- committed\n%s\n--- got\n%s", section, got)
			}
		})
	}
}

// extractSection returns the report block for the given experiment id
// from a concatenated results file: from its "== id:" header up to (not
// including) the next experiment header.
func extractSection(txt, id string) string {
	header := "== " + id + ": "
	start := strings.Index(txt, header)
	if start < 0 {
		return ""
	}
	rest := txt[start:]
	if end := strings.Index(rest[len(header):], "\n== "); end >= 0 {
		// The match lands on the blank separator line fmt.Println added
		// after the report's own trailing newline; exclude it.
		return rest[:len(header)+end]
	}
	return strings.TrimSuffix(rest, "\n")
}
