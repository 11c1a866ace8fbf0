package timeline

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"netcrafter/internal/sim"
)

// pulseTicker is busy on cycles [busyFrom, busyTo) and on every cycle
// divisible by period afterwards. It wants every cycle.
type pulseTicker struct {
	busyFrom, busyTo sim.Cycle
	period           sim.Cycle
	ticks            int
}

func (t *pulseTicker) Tick(now sim.Cycle) bool {
	t.ticks++
	if now >= t.busyFrom && now < t.busyTo {
		return true
	}
	return t.period > 0 && now%t.period == 0
}

func (t *pulseTicker) NextWake(now sim.Cycle) sim.Cycle { return now + 1 }
func (t *pulseTicker) SetWaker(*sim.Waker)              {}

// schedTicker is busy at exactly the listed (ascending) cycles and
// hints the engine to wake it then.
type schedTicker struct {
	busy []sim.Cycle
	i    int
}

func (t *schedTicker) Tick(now sim.Cycle) bool {
	if t.i < len(t.busy) && t.busy[t.i] == now {
		t.i++
		return true
	}
	return false
}

func (t *schedTicker) NextWake(now sim.Cycle) sim.Cycle {
	if t.i < len(t.busy) {
		return t.busy[t.i]
	}
	return sim.CycleMax
}

func (t *schedTicker) SetWaker(*sim.Waker) {}

func TestTrackWindowAggregation(t *testing.T) {
	tl := New(16)
	tr := tl.NewUtilTrack("link.a", 10, 2) // capacity 2/cycle → 20/window
	for c := sim.Cycle(0); c < 25; c++ {
		tr.Observe(c, 1) // 10 per full window
	}
	tl.Finish(30)
	w := tr.Windows()
	if len(w) != 3 || w[0] != 10 || w[1] != 10 || w[2] != 5 {
		t.Fatalf("windows = %v, want [10 10 5]", w)
	}
	u := tr.Utilization()
	if u[0] != 0.5 || u[2] != 0.25 {
		t.Fatalf("utilization = %v, want [0.5 0.5 0.25]", u)
	}
}

func TestTrackOccupancyMax(t *testing.T) {
	tl := New(16)
	tr := tl.NewOccupancyTrack("q", 100)
	tr.Observe(5, 3)
	tr.Observe(7, 9)
	tr.Observe(50, 2)
	tr.Observe(150, 4)
	tl.Finish(0)
	w := tr.Windows()
	if len(w) != 2 || w[0] != 9 || w[1] != 4 {
		t.Fatalf("windows = %v, want [9 4]", w)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tl := New(4)
	tr := tl.NewDwellTrack("d")
	for i := 0; i < 7; i++ {
		tr.Dwell(sim.Cycle(i), 1, uint64(i))
	}
	if tl.Events() != 7 || tl.Dropped() != 3 {
		t.Fatalf("events=%d dropped=%d, want 7/3", tl.Events(), tl.Dropped())
	}
	evs := tl.ordered()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.ID != uint64(i+3) {
			t.Fatalf("ordered()[%d].ID = %d, want %d (oldest-first after wrap)", i, ev.ID, i+3)
		}
	}
}

func TestEngineSliceCoalescing(t *testing.T) {
	e := sim.NewEngine()
	// Hinted ticker busy at exactly the scheduled cycles, so the wake
	// engine processes each of them.
	p := &schedTicker{busy: []sim.Cycle{3, 4, 5, 6, 10, 20}}
	e.Register("cu0", p)
	tl := New(64)
	tl.AttachEngine(e)
	e.Run(25)
	tl.Finish(e.Now())

	var slices []Event
	for _, ev := range tl.ordered() {
		if tl.tracks[ev.Track].kind == kindSlice {
			slices = append(slices, ev)
		}
	}
	// Consecutive busy cycles coalesce: [3,7) [10,11) [20,21).
	want := []struct{ start, dur sim.Cycle }{{3, 4}, {10, 1}, {20, 1}}
	if len(slices) != len(want) {
		t.Fatalf("got %d slices %v, want %d", len(slices), slices, len(want))
	}
	for i, w := range want {
		if slices[i].Start != w.start || slices[i].Dur != w.dur {
			t.Fatalf("slice %d = [%d,+%d), want [%d,+%d)", i, slices[i].Start, slices[i].Dur, w.start, w.dur)
		}
	}
	if got := tl.tracks[slices[0].Track].Name(); got != "cu0" {
		t.Fatalf("slice track name = %q, want cu0", got)
	}
}

func TestEngineProfile(t *testing.T) {
	e := sim.NewEngine()
	p := &pulseTicker{busyFrom: 0, busyTo: 5}
	e.Register("hot", p)
	e.EnableProfile()
	e.Run(10)
	prof := e.Profile()
	if len(prof) != 1 {
		t.Fatalf("profile rows = %d, want 1", len(prof))
	}
	c := prof[0]
	if c.Name != "hot" || c.Ticks != int64(p.ticks) || c.Busy != 5 {
		t.Fatalf("profile = %+v, want name=hot ticks=%d busy=5", c, p.ticks)
	}
	if c.Host <= 0 {
		t.Fatalf("profile host time = %v, want > 0", c.Host)
	}
	var buf bytes.Buffer
	if err := WriteProfile(&buf, prof); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hot") {
		t.Fatalf("profile table missing component row:\n%s", buf.String())
	}
}

// traceEvent mirrors the Chrome Trace Event keys the export must emit.
type traceEvent struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ts   *int64         `json:"ts"`
	Dur  int64          `json:"dur"`
	ID   string         `json:"id"`
	Args map[string]any `json:"args"`
}

func TestWriteTraceSchema(t *testing.T) {
	e := sim.NewEngine()
	e.Register("cu0", &pulseTicker{busyFrom: 0, busyTo: 4})
	tl := New(256)
	tl.AttachEngine(e)
	util := tl.NewUtilTrack("link.c0->c1", 8, 1)
	dwell := tl.NewDwellTrack("txn.c0.dram")
	e.Run(20)
	for c := sim.Cycle(0); c < 16; c++ {
		util.Observe(c, 1)
	}
	dwell.Dwell(5, 7, 0xabc)
	tl.Finish(e.Now())

	var buf bytes.Buffer
	if err := tl.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	var sawMeta, sawSlice, sawCounter, sawBegin, sawEnd bool
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			sawMeta = true
			if ev.Name != "process_name" && ev.Name != "thread_name" && ev.Name != "thread_sort_index" {
				t.Fatalf("unexpected metadata event name %q", ev.Name)
			}
		case "X":
			sawSlice = true
			if ev.Ts == nil || ev.Dur <= 0 || ev.Name == "" || ev.Pid == 0 {
				t.Fatalf("malformed complete event: %+v", ev)
			}
		case "C":
			sawCounter = true
			if ev.Ts == nil || ev.Args["value"] == nil {
				t.Fatalf("malformed counter event: %+v", ev)
			}
			if ev.Name == "link.c0->c1" {
				if u, ok := ev.Args["util"].(float64); !ok || u != 1 {
					t.Fatalf("util counter args = %v, want util=1", ev.Args)
				}
			}
		case "b":
			sawBegin = true
			if ev.ID != "0xabc" || ev.Cat != "txn" || *ev.Ts != 5 {
				t.Fatalf("malformed async begin: %+v", ev)
			}
		case "e":
			sawEnd = true
			if ev.ID != "0xabc" || *ev.Ts != 12 {
				t.Fatalf("malformed async end: %+v", ev)
			}
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if !sawMeta || !sawSlice || !sawCounter || !sawBegin || !sawEnd {
		t.Fatalf("trace missing event kinds: M=%v X=%v C=%v b=%v e=%v",
			sawMeta, sawSlice, sawCounter, sawBegin, sawEnd)
	}
}

func TestWriteTraceNil(t *testing.T) {
	var tl *Timeline
	var buf bytes.Buffer
	if err := tl.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil trace is not valid JSON: %v", err)
	}
}

func TestWriteHeatmap(t *testing.T) {
	tl := New(1024)
	hotT := tl.NewUtilTrack("link.c0->c1", 10, 1)
	cold := tl.NewUtilTrack("link.c1->c0", 10, 1)
	for c := sim.Cycle(0); c < 200; c++ {
		hotT.Observe(c, 1)
		if c%10 == 0 {
			cold.Observe(c, 1)
		}
	}
	tl.Finish(200)
	var buf bytes.Buffer
	if err := tl.WriteHeatmap(&buf, 20); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"congestion heatmap", "link.c0->c1", "link.c1->c0", "hottest links", "mean 100.0%", "mean  10.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("heatmap missing %q:\n%s", want, out)
		}
	}
	// The hot link must rank first.
	hot := strings.Index(out, "hottest links")
	if first := strings.Index(out[hot:], "link.c0->c1"); first < 0 ||
		strings.Index(out[hot:], "link.c1->c0") < first {
		t.Fatalf("hottest-links ranking wrong:\n%s", out)
	}
}

func TestWriteHeatmapEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New(8).WriteHeatmap(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no utilization tracks") {
		t.Fatalf("empty heatmap output: %q", buf.String())
	}
}

// Detached instruments must be free: nil Timeline and nil Track are the
// always-on hooks every component carries, pinned at 0 allocs like the
// rest of the obs contract.
func TestDetachedTimelineNoAllocs(t *testing.T) {
	var tl *Timeline
	var tr *Track
	var now sim.Cycle
	if avg := testing.AllocsPerRun(1000, func() {
		tr.Observe(now, 1)
		tr.Dwell(now, 4, 7)
		tl.Finish(now)
		now++
	}); avg != 0 {
		t.Errorf("detached timeline hooks allocate %.1f objects/op, want 0", avg)
	}
}

// An engine with no probe and no profiling must not allocate per round:
// the observability branch may not disturb the engine's 0 allocs pin.
func TestEngineUnobservedStepNoAllocs(t *testing.T) {
	e := sim.NewEngine()
	e.Register("h", &pulseTicker{busyFrom: 0, busyTo: 1 << 30})
	if avg := testing.AllocsPerRun(1000, func() {
		e.Step()
	}); avg != 0 {
		t.Errorf("unobserved engine Step allocates %.1f objects/op, want 0", avg)
	}
}

// BenchmarkTimelineDetachedObserve pins the detached hot path (one nil
// check) for bench-micro.
func BenchmarkTimelineDetachedObserve(b *testing.B) {
	var tr *Track
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Observe(sim.Cycle(i), 1)
	}
}

// BenchmarkTimelineObserve measures the attached windowed-track path.
func BenchmarkTimelineObserve(b *testing.B) {
	tl := New(1 << 16)
	tr := tl.NewUtilTrack("l", 1024, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Observe(sim.Cycle(i), 1)
	}
}
