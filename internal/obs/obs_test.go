package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"

	"netcrafter/internal/sim"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.b.count") != c {
		t.Fatal("Counter did not return the same instrument for the same name")
	}
	g := r.Gauge("a.b.gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(2)
	if c.Value() != 0 {
		t.Fatal("nil counter should report 0")
	}
	r.Gauge("x").Set(1)
	r.Hist("x").Observe(1)
	r.Series("x", 10).Observe(5, 1)
	r.GaugeFunc("x", func() float64 { return 1 })
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", got)
	}
	if err := r.WriteProm(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var h *Hist
	h.Observe(3)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil hist should be empty")
	}
	var s *Span
	s.To(StageWire, 10)
	s.End(20)
	if s.Total() != 0 {
		t.Fatal("nil span should be empty")
	}
	var rec *SpanRecorder
	if sp := rec.Start(1, 1, "ReadReq", 0, 1, 0); sp != nil {
		t.Fatal("nil recorder should return a nil span")
	}
	if rec.Spans() != 0 || rec.Flush() != nil {
		t.Fatal("nil recorder should be inert")
	}
}

func TestLogBucketsQuantiles(t *testing.T) {
	var lb LogBuckets
	for i := 1; i <= 1000; i++ {
		lb.Observe(float64(i))
	}
	if lb.Count() != 1000 {
		t.Fatalf("count = %d", lb.Count())
	}
	if lb.Max() != 1000 {
		t.Fatalf("max = %v", lb.Max())
	}
	if m := lb.Mean(); m < 500 || m > 501 {
		t.Fatalf("mean = %v, want 500.5", m)
	}
	// Quantiles are bucket-resolution estimates: within 2x of truth.
	checks := []struct{ q, truth float64 }{{0.5, 500}, {0.9, 900}, {0.99, 990}}
	for _, c := range checks {
		got := lb.Quantile(c.q)
		if got < c.truth/2 || got > c.truth*2 {
			t.Errorf("Quantile(%v) = %v, want within 2x of %v", c.q, got, c.truth)
		}
	}
	if got := lb.Quantile(1); got != 1000 {
		t.Fatalf("Quantile(1) = %v, want exact max", got)
	}
}

func TestLogBucketsMerge(t *testing.T) {
	var a, b LogBuckets
	a.Observe(4)
	a.Observe(8)
	b.Observe(1000)
	a.Merge(&b)
	if a.Count() != 3 || a.Max() != 1000 || a.Sum() != 1012 {
		t.Fatalf("merge: count=%d max=%v sum=%v", a.Count(), a.Max(), a.Sum())
	}
}

func TestSpanStageTiling(t *testing.T) {
	rec := NewSpanRecorder(nil)
	s := rec.Start(7, 7, "ReadReq", 0, 2, 100)
	s.To(StageSrcNet, 110)   // inject: 10
	s.To(StageCtlQueue, 150) // src_net: 40
	s.To(StagePool, 160)     // ctl_queue: 10
	s.To(StageWire, 192)     // pool: 32
	s.To(StageDstNet, 250)   // wire: 58
	s.To(StageReassemble, 260)
	s.End(300) // reassemble: 40
	if got := s.Total(); got != 200 {
		t.Fatalf("total = %d, want 200", got)
	}
	var sum sim.Cycle
	for st := Stage(0); st < NumStages; st++ {
		sum += s.Stage(st)
	}
	if sum != s.Total() {
		t.Fatalf("stage sum %d != total %d", sum, s.Total())
	}
	if s.Stage(StagePool) != 32 || s.Stage(StageWire) != 58 {
		t.Fatalf("stage durations wrong: pool=%d wire=%d", s.Stage(StagePool), s.Stage(StageWire))
	}
	// Stamps after End are ignored.
	s.To(StageMem, 400)
	s.End(500)
	if s.Total() != 200 || rec.Spans() != 1 {
		t.Fatal("span mutated after End")
	}
}

func TestSpanOutOfOrderStampKeepsTiling(t *testing.T) {
	rec := NewSpanRecorder(nil)
	s := rec.Start(1, 1, "ReadRsp", 1, 0, 100)
	s.To(StageWire, 150)
	// A later flit of the same packet re-enters an earlier stage with a
	// stamp in the past; time must not go backwards.
	s.To(StageCtlQueue, 140)
	s.End(200)
	var sum sim.Cycle
	for st := Stage(0); st < NumStages; st++ {
		sum += s.Stage(st)
	}
	if sum != s.Total() {
		t.Fatalf("stage sum %d != total %d after out-of-order stamp", sum, s.Total())
	}
}

// readSpans parses a JSONL span stream back into span records.
func readSpans(rd io.Reader) ([]SpanRecord, error) {
	dec := json.NewDecoder(rd)
	var out []SpanRecord
	for dec.More() {
		var rec SpanRecord
		if err := dec.Decode(&rec); err != nil {
			return out, err
		}
		out = append(out, rec)
	}
	return out, nil
}

func TestSpanRecorderJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec := NewSpanRecorder(&buf)
	s := rec.Start(9, 11, "PTReq", 0, 3, 50)
	s.To(StageSrcNet, 60)
	s.To(StageMem, 90)
	s.End(140)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := readSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d spans, want 1", len(recs))
	}
	r := recs[0]
	if r.Kind != "span" || r.Pkt != 9 || r.Trace != 11 || r.Type != "PTReq" || r.Src != 0 || r.Dst != 3 {
		t.Fatalf("bad record identity: %+v", r)
	}
	if r.Total() != 90 || r.StageSum() != r.Total() {
		t.Fatalf("record total=%d stage-sum=%d, want 90/90", r.Total(), r.StageSum())
	}
	if r.Stages["inject"] != 10 || r.Stages["src_net"] != 30 || r.Stages["mem"] != 50 {
		t.Fatalf("bad stages: %v", r.Stages)
	}
}

func TestBreakdownAggregation(t *testing.T) {
	rec := NewSpanRecorder(nil)
	for i := 0; i < 10; i++ {
		s := rec.Start(uint64(i), uint64(i), "ReadReq", 0, 1, 0)
		s.To(StageWire, 10)
		s.End(sim.Cycle(10 + 10*(i+1)))
	}
	b := rec.Breakdown()
	if got := b.Spans("ReadReq"); got != 10 {
		t.Fatalf("spans = %d, want 10", got)
	}
	wire := b.Stage("ReadReq", StageWire)
	if wire.Count() != 10 || wire.Max() != 100 {
		t.Fatalf("wire stage count=%d max=%v", wire.Count(), wire.Max())
	}
	inj := b.Stage("ReadReq", StageInject)
	if inj.Mean() != 10 {
		t.Fatalf("inject mean = %v, want 10", inj.Mean())
	}
	tbl := b.Table()
	for _, want := range []string{"ReadReq", "wire", "e2e"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
}

func TestSeriesWindows(t *testing.T) {
	s := NewSeries("wire.bytes", 100)
	s.Observe(5, 16)
	s.Observe(99, 16)
	s.Observe(250, 8)
	ws := s.Windows()
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2", len(ws))
	}
	if ws[0].Start != 0 || ws[0].Sum != 32 || ws[0].Count != 2 {
		t.Fatalf("window 0 = %+v", ws[0])
	}
	if ws[1].Start != 200 || ws[1].Sum != 8 {
		t.Fatalf("window 1 = %+v", ws[1])
	}
}

// TestSeriesWindowRollover pins the bucketing at window boundaries:
// cycle window-1 is the last cycle of window 0 and cycle window the
// first of window 1, empty windows between observations are skipped,
// and a sub-1 window clamps to 1 cycle.
func TestSeriesWindowRollover(t *testing.T) {
	s := NewSeries("edge", 100)
	s.Observe(99, 1)  // last cycle of window 0
	s.Observe(100, 2) // first cycle of window 1
	s.Observe(199, 4) // last cycle of window 1
	s.Observe(500, 8) // window 5: windows 2..4 stay empty and unreported
	ws := s.Windows()
	if len(ws) != 3 {
		t.Fatalf("got %d windows, want 3: %+v", len(ws), ws)
	}
	if ws[0].Start != 0 || ws[0].Sum != 1 || ws[0].Count != 1 {
		t.Errorf("window 0 = %+v, want start 0 sum 1 count 1", ws[0])
	}
	if ws[1].Start != 100 || ws[1].Sum != 6 || ws[1].Count != 2 {
		t.Errorf("window 1 = %+v, want start 100 sum 6 count 2", ws[1])
	}
	if ws[2].Start != 500 || ws[2].Sum != 8 || ws[2].Count != 1 {
		t.Errorf("window 2 = %+v, want start 500 sum 8 count 1", ws[2])
	}

	// Window 0 clamps to 1: every cycle is its own window.
	c := NewSeries("clamped", 0)
	if c.Window() != 1 {
		t.Fatalf("window 0 clamped to %d, want 1", c.Window())
	}
	c.Observe(0, 1)
	c.Observe(1, 1)
	if ws := c.Windows(); len(ws) != 2 || ws[1].Start != 1 {
		t.Fatalf("clamped windows = %+v, want two one-cycle windows", ws)
	}

	// Nil series: observe and read are no-ops.
	var n *Series
	n.Observe(5, 1)
	if n.Windows() != nil || n.Window() != 0 {
		t.Fatal("nil series recorded something")
	}
}

func TestWritePromSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("net.flits").Add(42)
	r.Gauge("net.util").Set(0.5)
	r.GaugeFunc("gpu0.l1.misses", func() float64 { return 7 })
	h := r.Hist("net.ctl.latency")
	h.Observe(10)
	h.Observe(1000)
	r.Series("net.wire", 100).Observe(50, 16)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"net_flits 42",
		"net_util 0.5",
		"gpu0_l1_misses 7",
		"net_ctl_latency_count 2",
		"net_ctl_latency{quantile=\"0.99\"}",
		"net_wire{window_start=\"0\"} 16",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	snap := r.Snapshot()
	found := false
	for _, m := range snap {
		if m.Name == "net.ctl.latency.max" && m.Value == 1000 {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapshot missing hist max: %v", snap)
	}
}

// TestWritePromGolden pins the exact exposition-format output: one
// # TYPE line per metric family, sanitized names (invalid bytes map to
// '_', a leading digit gets a '_' prefix), quantile-labeled summaries
// and window-labeled series — the contract a Prometheus scraper sees.
func TestWritePromGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("net.flits-total").Add(42)
	r.Gauge("weird name!").Set(0.5)
	r.GaugeFunc("0starts.with.digit", func() float64 { return 7 })
	h := r.Hist("ctl.lat")
	h.Observe(10)
	h.Observe(20)
	r.Series("wire", 100).Observe(50, 16)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE net_flits_total counter
net_flits_total 42
# TYPE weird_name_ gauge
weird_name_ 0.5
# TYPE _0starts_with_digit gauge
_0starts_with_digit 7
# TYPE ctl_lat summary
ctl_lat{quantile="0.5"} 12
ctl_lat{quantile="0.9"} 20
ctl_lat{quantile="0.99"} 20
ctl_lat_max 20
ctl_lat_sum 30
ctl_lat_count 2
# TYPE wire gauge
wire{window_start="0"} 16
`
	if got := buf.String(); got != want {
		t.Errorf("WriteProm output drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestPromName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"net.flits", "net_flits"},
		{"already_valid:name", "already_valid:name"},
		{"dash-and.dot", "dash_and_dot"},
		{"0leading", "_0leading"},
		{"9", "_9"},
		{"", "_"},
		{"sp ace/slash\"quote\nnewline", "sp_ace_slash_quote_newline"},
		{"ünïcode", "__n__code"}, // sanitized byte-wise
	}
	for _, tc := range cases {
		if got := promName(tc.in); got != tc.want {
			t.Errorf("promName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestConcurrentRegistryAndSpans exercises the registry and span
// recorder from many goroutines; run with -race.
func TestConcurrentRegistryAndSpans(t *testing.T) {
	r := NewRegistry()
	rec := NewSpanRecorder(&bytes.Buffer{})
	var wg sync.WaitGroup
	const workers = 8
	const iters = 500
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared.count").Inc()
				r.Gauge("shared.gauge").Set(float64(i))
				r.Hist("shared.hist").Observe(float64(i))
				r.Series("shared.series", 64).Observe(sim.Cycle(i), 1)
				s := rec.Start(uint64(w*iters+i), 0, "ReadReq", w, 0, sim.Cycle(i))
				s.To(StageWire, sim.Cycle(i+5))
				s.End(sim.Cycle(i + 9))
			}
		}()
	}
	// Concurrent readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			r.Snapshot()
			_ = r.WriteProm(&bytes.Buffer{})
			rec.Breakdown()
		}
	}()
	wg.Wait()
	if got := r.Counter("shared.count").Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := rec.Spans(); got != workers*iters {
		t.Fatalf("spans = %d, want %d", got, workers*iters)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestDisabledPathZeroAllocs asserts the acceptance criterion directly:
// nil instruments perform zero allocations per operation.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var s *Span
	var h *Hist
	var c *Counter
	var se *Series
	var rec *SpanRecorder
	allocs := testing.AllocsPerRun(1000, func() {
		sp := rec.Start(1, 1, "ReadReq", 0, 1, 0)
		sp.To(StageWire, 10)
		sp.End(20)
		s.To(StageCtlQueue, 5)
		s.End(6)
		h.Observe(3)
		c.Inc()
		se.Observe(7, 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v per op, want 0", allocs)
	}
}
