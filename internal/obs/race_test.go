package obs

import (
	"io"
	"strings"
	"sync"
	"testing"

	"netcrafter/internal/sim"
)

// These tests exist to run under `go test -race`: the benchmark
// harness fans independent simulations out across goroutines, each with
// its own registry and span recorder, so every instrument must be safe
// under concurrent use and two registries must never share state.

// TestRegistryConcurrentInstruments hammers one registry from many
// goroutines: creation races (same name), updates, and snapshots all
// interleaved.
func TestRegistryConcurrentInstruments(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				reg.Counter("shared.counter").Inc()
				reg.Gauge("shared.gauge").Set(float64(i))
				reg.Hist("shared.hist").Observe(float64(i % 64))
				reg.Series("shared.series", 16).Observe(sim.Cycle(i), 1)
				reg.GaugeFunc("shared.fn", func() float64 { return 1 })
				if i%50 == 0 {
					_ = reg.Snapshot()
					_ = reg.WriteProm(io.Discard)
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared.counter").Value(); got != 8*200 {
		t.Fatalf("counter lost updates: %d, want %d", got, 8*200)
	}
}

// TestRegistryIsolation runs per-"cell" registries concurrently, the
// way the parallel sweep runner attaches one registry per simulated
// system, and checks no counts bleed between them.
func TestRegistryIsolation(t *testing.T) {
	const cells = 6
	regs := make([]*Registry, cells)
	var wg sync.WaitGroup
	for c := 0; c < cells; c++ {
		regs[c] = NewRegistry()
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i <= c*100; i++ {
				regs[c].Counter("cell.work").Inc()
			}
		}()
	}
	wg.Wait()
	for c := 0; c < cells; c++ {
		if got := regs[c].Counter("cell.work").Value(); got != int64(c*100+1) {
			t.Errorf("registry %d holds %d, want %d (cross-cell bleed?)", c, got, c*100+1)
		}
	}
}

// TestGaugeFuncConcurrentSnapshot re-registers pull gauges (last
// writer wins) while other goroutines snapshot and export the
// registry, so the function map's lock discipline runs under -race.
// The churned callbacks bump a counter to prove they are invoked, not
// skipped, during the replacement storm.
func TestGaugeFuncConcurrentSnapshot(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	var mu sync.Mutex
	called := 0
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v := float64(g*1000 + i)
				reg.GaugeFunc("churn.fn", func() float64 {
					mu.Lock()
					called++
					mu.Unlock()
					return v
				})
				reg.GaugeFunc("stable.fn", func() float64 { return 1 })
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				for _, m := range reg.Snapshot() {
					if m.Name == "stable.fn" && m.Value != 1 {
						t.Errorf("stable.fn read %v, want 1", m.Value)
					}
				}
				_ = reg.WriteProm(io.Discard)
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if called == 0 {
		t.Fatal("churned gauge function never invoked by Snapshot/WriteProm")
	}
}

// TestSpanRecorderConcurrentFinish finishes spans from several
// goroutines into one recorder while others read the breakdown.
func TestSpanRecorderConcurrentFinish(t *testing.T) {
	var sb strings.Builder
	var mu sync.Mutex // strings.Builder is not concurrency-safe; recorder locking covers enc, not sb
	rec := NewSpanRecorder(lockedWriter{&mu, &sb})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := rec.Start(uint64(g*1000+i), 7, "ReadReq", 0, 2, 0)
				sp.To(StageWire, 5)
				sp.End(sim.Cycle(10 + i%3))
				if i%25 == 0 {
					_ = rec.Breakdown()
					_ = rec.Spans()
				}
			}
		}()
	}
	wg.Wait()
	if got := rec.Spans(); got != 400 {
		t.Fatalf("recorder counted %d spans, want 400", got)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := readSpans(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 400 {
		t.Fatalf("JSONL stream has %d spans, want 400", len(recs))
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
