package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFlagMatrix drives the CLI in-process over the output-flag
// matrix: every sink flag accepting '-' for stdout, unwritable paths
// failing upfront with a non-zero exit, and the guards and exports
// behaving. Tiny-scale GUPS keeps each simulating case fast.
func TestRunFlagMatrix(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-workload", "GUPS", "-scale", "tiny"}
	// A well-formed spec the simulator cannot build: one cluster.
	oneCluster := filepath.Join(dir, "one-cluster.json")
	if err := os.WriteFile(oneCluster, []byte(`{
	  "name": "one-cluster",
	  "devices": [{"name": "gpu0", "cluster": 0}, {"name": "gpu1", "cluster": 0}],
	  "switches": [{"name": "sw0", "cluster": 0}],
	  "links": [{"a": "gpu0", "b": "sw0", "bw": 8}, {"a": "gpu1", "b": "sw0", "bw": 8}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		args    []string
		exit    int
		wantOut []string // substrings that must appear on stdout
		wantErr []string // substrings that must appear on stderr
		once    []string // substrings that must appear on stdout exactly once
	}{
		{name: "plain", args: base, exit: 0, wantOut: []string{"GUPS", "cycles="}},
		{name: "list", args: []string{"-list"}, exit: 0, wantOut: []string{"GUPS"}},
		{name: "timeline file", args: append(base, "-timeline", filepath.Join(dir, "t.json")), exit: 0,
			wantOut: []string{"timeline:", "Perfetto"}},
		{name: "timeline stdout", args: append(base, "-timeline", "-"), exit: 0,
			wantOut: []string{`"traceEvents"`}},
		{name: "spans stdout", args: append(base, "-spans", "-"), exit: 0,
			wantOut: []string{`"type":"ReadReq"`, "spans:"}},
		{name: "metrics stdout", args: append(base, "-metrics", "-"), exit: 0,
			wantOut: []string{"# TYPE", "nc0_flits_total"}},
		{name: "heatmap", args: append(base, "-heatmap"), exit: 0,
			wantOut: []string{"congestion heatmap", "hottest links"}},
		{name: "profile components", args: append(base, "-profile-components"), exit: 0,
			wantOut: []string{"component profile", "host/tick"}},
		// Each shard's engine registers its own scheduler; the printed
		// profile merges them into one row and lists both shards'
		// controllers.
		{name: "shards profile components", args: append(base, "-topo", "frontier-4x2", "-shards", "2", "-profile-components"), exit: 0,
			once: []string{"component profile", "\n  sched ", "\n  nc0 ", "\n  nc1 "}},
		{name: "timeline unwritable", args: append(base, "-timeline", "/nonexistent-dir/x.json"), exit: 1,
			wantErr: []string{"netcrafter-sim:"}},
		{name: "spans unwritable", args: append(base, "-spans", "/nonexistent-dir/x.jsonl"), exit: 1,
			wantErr: []string{"netcrafter-sim:"}},
		{name: "metrics unwritable", args: append(base, "-metrics", "/nonexistent-dir/x.prom"), exit: 1,
			wantErr: []string{"netcrafter-sim:"}},
		{name: "timeline needs one workload", args: []string{"-workload", "all", "-scale", "tiny", "-timeline", "-"}, exit: 1,
			wantErr: []string{"single -workload"}},
		{name: "heatmap needs one workload", args: []string{"-workload", "all", "-scale", "tiny", "-heatmap"}, exit: 1,
			wantErr: []string{"single -workload"}},
		{name: "bad config", args: []string{"-config", "bogus"}, exit: 1, wantErr: []string{"unknown -config"}},
		{name: "bad scale", args: []string{"-scale", "bogus"}, exit: 1, wantErr: []string{"unknown -scale"}},
		{name: "bad flag", args: []string{"-no-such-flag"}, exit: 2},
		{name: "flit too small", args: append(base, "-flit", "4"), exit: 1,
			wantErr: []string{"flit size 4"}},
		{name: "pool unset", args: append(base, "-pool", "-1"), exit: 0, wantOut: []string{"cycles="}},
		{name: "negative pool", args: append(base, "-pool", "-7"), exit: 1, wantErr: []string{"-pool -7"}},
		{name: "negative flit", args: append(base, "-flit", "-4"), exit: 1, wantErr: []string{"-flit -4"}},
		{name: "negative inter", args: append(base, "-inter", "-3"), exit: 1, wantErr: []string{"-inter -3"}},
		{name: "negative intra", args: append(base, "-intra", "-3"), exit: 1, wantErr: []string{"-intra -3"}},
		{name: "negative comm-bytes", args: []string{"-comm", "ring-allreduce", "-scale", "tiny", "-comm-bytes", "-5"}, exit: 1,
			wantErr: []string{"-comm-bytes -5"}},
		{name: "negative qps", args: []string{"-comm", "serve-poisson", "-scale", "tiny", "-qps", "-1"}, exit: 1,
			wantErr: []string{"-qps -1"}},
		{name: "negative requests", args: []string{"-comm", "serve-poisson", "-scale", "tiny", "-requests", "-2"}, exit: 1,
			wantErr: []string{"-requests -2"}},
		{name: "negative shards", args: append(base, "-shards", "-3"), exit: 1, wantErr: []string{"-shards -3"}},
		{name: "flow flit too small", args: []string{"-backend", "flow", "-comm", "ring-allreduce", "-scale", "tiny", "-flit", "4"}, exit: 1,
			wantErr: []string{"flit size 4"}},
		{name: "one-cluster topo", args: []string{"-topo", oneCluster, "-workload", "BS", "-scale", "tiny"}, exit: 1,
			wantErr: []string{"at least two clusters"}},
		{name: "shards comm rejected", args: []string{"-shards", "2", "-comm", "ring-allreduce", "-scale", "tiny"}, exit: 1,
			wantErr: []string{"-shards", "-comm"}},
		{name: "shards metrics rejected", args: append(base, "-shards", "2", "-metrics", "-"), exit: 1,
			wantErr: []string{"-shards", "-metrics"}},
		{name: "comm list", args: []string{"-comm", "list"}, exit: 0,
			wantOut: []string{"ring-allreduce", "serve-poisson"}},
		{name: "comm collective", args: []string{"-comm", "ring-allreduce", "-scale", "tiny", "-config", "baseline"}, exit: 0,
			wantOut: []string{"comm ring-allreduce", "busbw="}},
		{name: "comm serving table", args: []string{"-comm", "serve-burst", "-scale", "tiny", "-requests", "16"}, exit: 0,
			wantOut: []string{"per-request latency", "p50", "p99", "p999"}},
		{name: "comm unknown", args: []string{"-comm", "ring-allreduc", "-scale", "tiny"}, exit: 1,
			wantErr: []string{`did you mean "ring-allreduce"?`}},
		{name: "comm metrics", args: []string{"-comm", "serve-poisson", "-scale", "tiny", "-metrics", "-"}, exit: 0,
			wantOut: []string{"comm_request_latency_cycles"}},
		{name: "comm spans stdout", args: []string{"-comm", "ring-allreduce", "-scale", "tiny", "-spans", "-"}, exit: 0,
			wantOut: []string{`"type":"WriteReq"`, "spans:", "e2e(mean/p99)"}},
		{name: "comm profile", args: []string{"-comm", "ring-allreduce", "-scale", "tiny", "-profile-components"}, exit: 0,
			wantOut: []string{"busbw=", "component profile", "comm.g0"}},
		{name: "comm inflight dump", args: []string{"-comm", "ring-allreduce", "-scale", "tiny", "-inflight-dump"}, exit: 0,
			wantOut: []string{"txn table cluster0", "busbw="}},
		{name: "comm export unwritable", args: []string{"-comm", "ring-allreduce", "-scale", "tiny", "-comm-export", "/nonexistent-dir/x.jsonl"}, exit: 1,
			wantErr: []string{"netcrafter-sim:"}},
		{name: "comm replay missing", args: []string{"-comm-replay", "/nonexistent-dir/x.jsonl"}, exit: 1,
			wantErr: []string{"netcrafter-sim:"}},
		{name: "comm flow backend", args: []string{"-backend", "flow", "-comm", "ring-allreduce", "-scale", "tiny"}, exit: 0,
			wantOut: []string{"comm ring-allreduce", "busbw="}},
		{name: "comm flow serving table", args: []string{"-backend", "flow", "-comm", "serve-burst", "-scale", "tiny", "-requests", "16"}, exit: 0,
			wantOut: []string{"per-request latency", "p99"}},
		{name: "flow workload rejected", args: []string{"-backend", "flow", "-workload", "GUPS", "-scale", "tiny"}, exit: 1,
			wantErr: []string{"cycle backend"}},
		{name: "flow metrics rejected", args: []string{"-backend", "flow", "-comm", "serve-poisson", "-scale", "tiny", "-metrics", "-"}, exit: 1,
			wantErr: []string{"-backend cycle"}},
		{name: "flow spans rejected", args: []string{"-backend", "flow", "-comm", "ring-allreduce", "-scale", "tiny", "-spans", "-"}, exit: 1,
			wantErr: []string{"-backend cycle"}},
		{name: "flow heatmap rejected", args: []string{"-backend", "flow", "-comm", "ring-allreduce", "-scale", "tiny", "-heatmap"}, exit: 1,
			wantErr: []string{"-backend cycle"}},
		{name: "bad backend", args: []string{"-backend", "bogus"}, exit: 1, wantErr: []string{"unknown backend"}},
		{name: "topo info fattree", args: []string{"-topo", "fattree-64", "-topo-info"}, exit: 0,
			wantOut: []string{"devices: 64", "taper-points: 32", "controllers: 32", "inter-links: 16", "taper-links: 16"}},
		{name: "topo info needs topo", args: []string{"-topo-info"}, exit: 1,
			wantErr: []string{"-topo-info needs -topo"}},
		{name: "topo preset did-you-mean", args: []string{"-topo", "fattree-65", "-topo-info"}, exit: 1,
			wantErr: []string{`did you mean "fattree-64"?`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != tc.exit {
				t.Fatalf("run(%v) = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					tc.args, code, tc.exit, out.String(), errb.String())
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(out.String(), want) {
					t.Errorf("stdout missing %q:\n%s", want, out.String())
				}
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(errb.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, errb.String())
				}
			}
			for _, want := range tc.once {
				if n := strings.Count(out.String(), want); n != 1 {
					t.Errorf("stdout has %q %d times, want once:\n%s", want, n, out.String())
				}
			}
		})
	}
}

// TestTimelineExportSchema is the CLI half of the Chrome Trace
// acceptance check: the -timeline file must parse as a Trace Event
// document containing every event class the timeline records.
func TestTimelineExportSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "timeline.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "GUPS", "-scale", "tiny", "-timeline", path}, &out, &errb); code != 0 {
		t.Fatalf("run exited %d:\n%s", code, errb.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("timeline has no events")
	}
	kinds := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		kinds[ph]++
		if _, ok := ev["name"].(string); !ok {
			t.Fatalf("event without name: %v", ev)
		}
	}
	// Metadata, execute slices, utilization/occupancy counters, and
	// balanced async dwell spans.
	for _, ph := range []string{"M", "X", "C", "b", "e"} {
		if kinds[ph] == 0 {
			t.Fatalf("no %q events in export (kinds: %v)", ph, kinds)
		}
	}
	if kinds["b"] != kinds["e"] {
		t.Fatalf("unbalanced async spans: %d begins, %d ends", kinds["b"], kinds["e"])
	}
}

// TestCommExportReplayRoundTrip is the CLI half of the replay
// guarantee: a plan exported with -comm-export and executed with
// -comm-replay reproduces the generator run's cycle count and
// per-request latency table exactly.
func TestCommExportReplayRoundTrip(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "serve.jsonl")
	var gen, rep bytes.Buffer
	if code := run([]string{"-comm", "serve-poisson", "-scale", "tiny", "-comm-export", trace}, &gen, &gen); code != 0 {
		t.Fatalf("generator run failed:\n%s", gen.String())
	}
	if code := run([]string{"-comm-replay", trace}, &rep, &rep); code != 0 {
		t.Fatalf("replay run failed:\n%s", rep.String())
	}
	tail := func(s, from string) string {
		i := strings.Index(s, from)
		if i < 0 {
			t.Fatalf("output missing %q:\n%s", from, s)
		}
		return s[i:]
	}
	// The headline lines differ only in the plan name; the latency
	// tables must match byte for byte.
	if g, r := tail(gen.String(), "requests"), tail(rep.String(), "requests"); g != r {
		t.Errorf("replay latency table differs:\ngenerator:\n%s\nreplay:\n%s", g, r)
	}
	cyc := func(s string) string {
		for _, f := range strings.Fields(s) {
			if strings.HasPrefix(f, "cycles=") {
				return f
			}
		}
		t.Fatalf("no cycles= token in:\n%s", s)
		return ""
	}
	if g, r := cyc(gen.String()), cyc(rep.String()); g != r {
		t.Errorf("replay makespan differs: %s vs %s", g, r)
	}
}
