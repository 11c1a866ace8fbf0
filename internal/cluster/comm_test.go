package cluster

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"netcrafter/internal/comm"
	"netcrafter/internal/obs"
	"netcrafter/internal/obs/timeline"
	"netcrafter/internal/sim"
	"netcrafter/internal/topo"
	"netcrafter/internal/workload"
)

// runCommByName generates the named program sized for sys (Scale.GPUs
// 0 means every GPU participates) and runs it.
func runCommByName(sys *System, name string, sc comm.Scale, limit sim.Cycle) (*comm.Result, error) {
	if sc.GPUs == 0 {
		sc.GPUs = len(sys.GPUs)
	}
	p, err := comm.ByName(name, sc)
	if err != nil {
		return nil, err
	}
	return sys.RunComm(p, comm.Options{}, limit)
}

// TestRunCommRingAllReduce is the collective acceptance check: a ring
// all-reduce executes on the baseline system through the real RDMA
// path, moves exactly the plan's bytes, and drains the fabric.
func TestRunCommRingAllReduce(t *testing.T) {
	sc := comm.Tiny()
	p, err := comm.ByName("ring-allreduce", comm.Scale{GPUs: 4, Bytes: sc.Bytes, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys := mustBuild(t, Baseline())
	r, err := sys.RunComm(p, comm.Options{}, testLimit)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 {
		t.Fatal("no cycles elapsed")
	}
	if r.BytesMoved != p.TotalBytes() {
		t.Fatalf("moved %d bytes, plan carries %d", r.BytesMoved, p.TotalBytes())
	}
	if r.LineWrites == 0 {
		t.Fatal("no line writes issued")
	}
	for _, ctl := range sys.Controllers {
		if ctl.QueuedFlits() != 0 {
			t.Fatalf("%s stranded flits after comm run", ctl.Name)
		}
	}
}

// TestRunCommServeTail: the open-loop serving workload completes every
// request and reports ordered tail percentiles.
func TestRunCommServeTail(t *testing.T) {
	sys := mustBuild(t, Baseline())
	r, err := runCommByName(sys, "serve-poisson", comm.Tiny(), testLimit)
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests != comm.Tiny().Requests || r.Incomplete != 0 {
		t.Fatalf("%d requests (%d incomplete), want %d complete", r.Requests, r.Incomplete, comm.Tiny().Requests)
	}
	p50, p99, p999 := r.P50(), r.P99(), r.P999()
	if p50 <= 0 || p50 > p99 || p99 > p999 || p999 > r.MaxLatency() {
		t.Fatalf("tail out of order: p50=%d p99=%d p999=%d max=%d", p50, p99, p999, r.MaxLatency())
	}
	if r.LatencyTable() == "" {
		t.Fatal("no latency table for a serving run")
	}
}

// TestCommReplayMatchesGenerator is the tentpole's replay guarantee: a
// plan exported to the JSONL trace format and parsed back produces the
// same per-request metrics as the generator's plan, on identical
// fresh systems.
func TestCommReplayMatchesGenerator(t *testing.T) {
	sc := comm.Tiny()
	sc.GPUs = 4
	orig, err := comm.ByName("serve-poisson", sc)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p *comm.Plan) *comm.Result {
		sys := mustBuild(t, Baseline())
		r, err := sys.RunComm(p, comm.Options{}, testLimit)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var buf bytes.Buffer
	if err := comm.WritePlan(&buf, orig); err != nil {
		t.Fatal(err)
	}
	replay, err := comm.ParsePlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := run(orig), run(replay)
	if a.Cycles != b.Cycles || a.BytesMoved != b.BytesMoved || a.LineWrites != b.LineWrites {
		t.Fatalf("replay diverged: cycles %d vs %d, bytes %d vs %d, lines %d vs %d",
			a.Cycles, b.Cycles, a.BytesMoved, b.BytesMoved, a.LineWrites, b.LineWrites)
	}
	if !reflect.DeepEqual(a.Latencies, b.Latencies) {
		t.Fatal("replay produced different per-request latencies")
	}
}

// TestCommDeterministicCycles: comm runs share the engine's
// determinism guarantee — same plan, same system, same cycle count.
func TestCommDeterministicCycles(t *testing.T) {
	run := func() *comm.Result {
		sys := mustBuild(t, Baseline())
		r, err := runCommByName(sys, "alltoall", comm.Tiny(), testLimit)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.LineWrites != b.LineWrites {
		t.Fatalf("nondeterministic comm run: cycles %d vs %d", a.Cycles, b.Cycles)
	}
}

// TestCommBytesConservedAcrossTopologies pins byte conservation across
// fabrics: the ring all-reduce moves exactly 2·(N−1)/N·size per GPU no
// matter which topology carries it — only time may differ.
func TestCommBytesConservedAcrossTopologies(t *testing.T) {
	const perGPUShard = 8 << 10
	for _, preset := range []string{"frontier-4x2", "frontier-8x4", "ring-8x4", "fc-8x4"} {
		g, err := topo.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := Build(Baseline().WithTopology(g))
		if err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
		n := len(sys.GPUs)
		size := n * perGPUShard // equal line-multiple shards
		r, err := runCommByName(sys, "ring-allreduce", comm.Scale{Bytes: size, Seed: 1}, testLimit)
		if err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
		want := int64(2 * (n - 1) * size)
		if r.BytesMoved != want {
			t.Errorf("%s (N=%d): moved %d bytes, want 2·(N−1)/N·size per GPU = %d total", preset, n, r.BytesMoved, want)
		}
	}
}

// TestRunCommObsWiring: with observability attached, request latencies
// land in the comm histogram and the dwell track; a second run on the
// same system registers under fresh component names.
func TestRunCommObsWiring(t *testing.T) {
	sys := mustBuild(t, Baseline())
	reg := obs.NewRegistry()
	tl := timeline.New(0)
	sys.AttachObs(reg, nil, tl)
	r, err := runCommByName(sys, "serve-burst", comm.Tiny(), testLimit)
	if err != nil {
		t.Fatal(err)
	}
	h := reg.Hist("comm.request_latency_cycles")
	if h.Count() != int64(r.Requests) {
		t.Fatalf("histogram saw %d requests, result has %d", h.Count(), r.Requests)
	}
	// Second run: unique injector names, back to back on the clock.
	r2, err := runCommByName(sys, "ring-allreduce", comm.Tiny(), testLimit)
	if err != nil {
		t.Fatalf("second comm run on one system: %v", err)
	}
	if r2.Cycles <= 0 {
		t.Fatal("second run did nothing")
	}
	tl.Finish(sys.Engine.Now())
}

// TestRunCommRejects: plans that do not fit the system fail up front.
func TestRunCommRejects(t *testing.T) {
	sys := mustBuild(t, Baseline())
	if _, err := runCommByName(sys, "ring-allreduce", comm.Scale{GPUs: 8}, testLimit); err == nil {
		t.Fatal("8-GPU plan accepted on 4-GPU system")
	}
	if _, err := runCommByName(sys, "nope", comm.Tiny(), testLimit); err == nil {
		t.Fatal("unknown program accepted")
	}
}

// TestFlowBackendRefusals pins the flow backend's two refusals, each
// naming its conflict: memory-trace workloads need the cycle backend,
// and sharding partitions the cycle engine the flow solver never
// builds.
func TestFlowBackendRefusals(t *testing.T) {
	cfg := Baseline()
	cfg.Backend = BackendFlow
	if _, err := RunOne(cfg, "GUPS", workload.Tiny(), testLimit); err == nil || !strings.Contains(err.Error(), "needs the cycle backend") {
		t.Errorf("RunOne on the flow backend: %v, want a cycle-backend refusal", err)
	}
	p, err := comm.ByName("ring-allreduce", comm.Scale{GPUs: 4, Bytes: comm.Tiny().Bytes, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 2
	if _, err := RunCommPlan(cfg, p, comm.Options{}, testLimit); err == nil || !strings.Contains(err.Error(), "Shards=2") {
		t.Errorf("RunCommPlan on the flow backend with Shards=2: %v, want a sharding refusal", err)
	}
}
