package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"netcrafter/internal/obs"
	"netcrafter/internal/obs/timeline"
	"netcrafter/internal/workload"
)

// TestSpansTileEndToEnd is the observability acceptance check: a real
// workload run with spans attached must produce spans whose per-stage
// latencies sum exactly to the end-to-end latency, with response trace
// ids linking back to their requests, and a populated registry.
func TestSpansTileEndToEnd(t *testing.T) {
	var buf strings.Builder
	sys := mustBuild(t, WithNetCrafter())
	reg := obs.NewRegistry()
	rec := obs.NewSpanRecorder(&buf)
	sys.AttachObs(reg, rec, nil)

	spec, err := workload.ByName("GUPS", workload.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunWorkload(spec, testLimit); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}

	var recs []obs.SpanRecord
	dec := json.NewDecoder(strings.NewReader(buf.String()))
	for dec.More() {
		var r obs.SpanRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		t.Fatal("run produced no spans")
	}
	if int64(len(recs)) != rec.Spans() {
		t.Fatalf("stream has %d spans, recorder counted %d", len(recs), rec.Spans())
	}

	reqTraces := map[uint64]bool{}
	for i := range recs {
		r := &recs[i]
		if r.StageSum() != r.Total() {
			t.Fatalf("span %d (%s): stage sum %d != end-to-end %d: %+v",
				r.Pkt, r.Type, r.StageSum(), r.Total(), r.Stages)
		}
		if r.End < r.Start {
			t.Fatalf("span %d ends before it starts: %+v", r.Pkt, r)
		}
		switch r.Type {
		case "ReadReq", "WriteReq", "PTReq":
			reqTraces[r.Trace] = true
		}
	}
	responses := 0
	for i := range recs {
		r := &recs[i]
		switch r.Type {
		case "ReadRsp", "WriteRsp", "PTRsp":
			responses++
			if !reqTraces[r.Trace] {
				t.Fatalf("response %d carries trace id %d with no matching request", r.Pkt, r.Trace)
			}
		}
	}
	if responses == 0 {
		t.Fatal("no response spans recorded")
	}

	// The breakdown aggregation and the registry must both have data.
	b := rec.Breakdown()
	if len(b.Types()) == 0 || b.Spans("ReadReq") == 0 {
		t.Fatalf("breakdown empty: types=%v", b.Types())
	}
	if reg.Hist("nc0.ctl_latency_cycles").Count() == 0 {
		t.Fatal("controller residency histogram empty")
	}
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil || prom.Len() == 0 {
		t.Fatalf("registry export empty (err %v)", err)
	}
}

// TestTimelineEndToEnd runs a real workload with the timeline attached
// and checks every event class made it in: engine execute slices,
// per-link utilization windows, queue occupancy, and transaction state
// dwells — then that the Chrome trace export parses and the heatmap and
// profile render.
func TestTimelineEndToEnd(t *testing.T) {
	cfg := WithNetCrafter()
	cfg.Profile = true
	sys := mustBuild(t, cfg)
	tl := timeline.New(0)
	sys.AttachObs(nil, nil, tl)

	spec, err := workload.ByName("GUPS", workload.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunWorkload(spec, testLimit); err != nil {
		t.Fatal(err)
	}
	tl.Finish(sys.Engine.Now())

	if tl.Events() == 0 {
		t.Fatal("timeline recorded no events")
	}
	var buf bytes.Buffer
	if err := tl.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	kinds := map[string]int{}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		kinds[ev["ph"].(string)]++
		if n, ok := ev["name"].(string); ok {
			names[n] = true
		}
	}
	for _, ph := range []string{"M", "X", "C", "b", "e"} {
		if kinds[ph] == 0 {
			t.Fatalf("trace has no %q events (kinds: %v)", ph, kinds)
		}
	}
	if kinds["b"] != kinds["e"] {
		t.Fatalf("unbalanced async spans: %d begins, %d ends", kinds["b"], kinds["e"])
	}
	// A link utilization counter, a controller queue track, the
	// controller's event-count tracks and a dwell state must all be
	// present by name.
	for _, want := range []string{"l.inter:a->b", "nc0.queue", "nc0.eject", "nc0.stitch", "nc0.trim", "txn.cluster0.dram"} {
		if !names[want] {
			t.Fatalf("trace missing track %q (have: %v)", want, names)
		}
	}

	buf.Reset()
	if err := tl.WriteHeatmap(&buf, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "l.inter:a->b") || !strings.Contains(buf.String(), "hottest links") {
		t.Fatalf("heatmap incomplete:\n%s", buf.String())
	}
	for _, track := range []string{"nc0.eject", "nc0.stitch", "nc0.trim"} {
		if strings.Contains(buf.String(), track) {
			t.Fatalf("count track %s is a heatmap row:\n%s", track, buf.String())
		}
	}

	buf.Reset()
	if err := timeline.WriteProfile(&buf, sys.Profile()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "component profile") || !strings.Contains(buf.String(), "nc0") {
		t.Fatalf("profile table incomplete:\n%s", buf.String())
	}
}

// TestAttachObsNilIsFree verifies runs with observability detached,
// nil-attached, and with the full timeline + profiler attached all
// behave identically — the determinism guard for every observation
// path: probes may watch the simulation but never steer it.
func TestAttachObsNilIsFree(t *testing.T) {
	run := func(mode int) *Result {
		cfg := WithNetCrafter()
		if mode == 2 {
			cfg.Profile = true
		}
		sys := mustBuild(t, cfg)
		switch mode {
		case 1:
			sys.AttachObs(nil, nil, nil)
		case 2:
			sys.AttachObs(nil, nil, timeline.New(0))
		}
		spec, err := workload.ByName("GUPS", workload.Tiny())
		if err != nil {
			t.Fatal(err)
		}
		r, err := sys.RunWorkload(spec, testLimit)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := run(0)
	for mode := 1; mode <= 2; mode++ {
		if b := run(mode); !reflect.DeepEqual(a, b) {
			t.Fatalf("observability mode %d changed the run:\n%+v\n%+v", mode, *a, *b)
		}
	}
}
