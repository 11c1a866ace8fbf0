package shard

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"netcrafter/internal/sim"
)

// even returns n equal cluster weights, the plan of a fabric with as
// many devices in every cluster.
func even(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

func TestPlanForSerialCounts(t *testing.T) {
	for _, shards := range []int{-1, 0, 1} {
		if p := PlanForWeights(even(4), shards); p != nil {
			t.Errorf("PlanForWeights(4 clusters, %d) = %+v, want nil (serial)", shards, p)
		}
	}
	// One cluster cannot be partitioned at all.
	if p := PlanForWeights(even(1), 8); p != nil {
		t.Errorf("PlanForWeights(1 cluster, 8) = %+v, want nil", p)
	}
}

func TestPlanForClampsToClusters(t *testing.T) {
	p := PlanForWeights(even(4), 16)
	if p == nil || p.N != 4 {
		t.Fatalf("PlanForWeights(4 clusters, 16) = %+v, want N=4", p)
	}
	for c := 0; c < 4; c++ {
		if p.Of(c) != c {
			t.Errorf("clamped plan: cluster %d on shard %d, want %d", c, p.Of(c), c)
		}
	}
}

// TestPlanForContiguousAndComplete checks that equal weights give
// contiguous blocks, cluster c on shard c*shards/clusters, and that
// skewed weights still leave no shard empty.
func TestPlanForContiguousAndComplete(t *testing.T) {
	for _, tc := range []struct {
		weights []int
		shards  int
	}{
		{even(2), 2}, {even(4), 2}, {even(4), 3}, {even(8), 4}, {even(5), 2}, {even(7), 3},
		{[]int{1, 1, 6, 1}, 3}, {[]int{8, 1, 1, 1, 1}, 4},
	} {
		n, uniform := len(tc.weights), slices.Min(tc.weights) == slices.Max(tc.weights)
		p := PlanForWeights(tc.weights, tc.shards)
		if p == nil || (uniform && p.N != tc.shards) {
			t.Fatalf("PlanForWeights(%v, %d) = %+v", tc.weights, tc.shards, p)
		}
		seen := make([]int, p.N)
		prev := 0
		for c := 0; c < n; c++ {
			sh := p.Of(c)
			if sh < prev {
				t.Errorf("PlanForWeights(%v, %d): shard assignment not monotonic at cluster %d", tc.weights, tc.shards, c)
			}
			if sh < 0 || sh >= p.N {
				t.Fatalf("PlanForWeights(%v, %d): cluster %d on shard %d of %d", tc.weights, tc.shards, c, sh, p.N)
			}
			if uniform && sh != c*tc.shards/n {
				t.Errorf("PlanForWeights(%v, %d): cluster %d on shard %d, want %d", tc.weights, tc.shards, c, sh, c*tc.shards/n)
			}
			prev = sh
			seen[sh]++
		}
		for sh, k := range seen {
			if k == 0 {
				t.Errorf("PlanForWeights(%v, %d): shard %d owns no cluster", tc.weights, tc.shards, sh)
			}
		}
	}
}

func TestPlanOfOutOfRange(t *testing.T) {
	p := PlanForWeights(even(4), 2)
	if got := p.Of(-1); got != 0 {
		t.Errorf("backbone (cluster -1) on shard %d, want 0", got)
	}
	if got := p.Of(99); got != p.N-1 {
		t.Errorf("out-of-range cluster on shard %d, want %d", got, p.N-1)
	}
}

// TestNilPlanIsOneShard pins the serial partition: the nil plan owns
// every cluster on shard 0 and counts one shard.
func TestNilPlanIsOneShard(t *testing.T) {
	var p *Plan
	if p.Shards() != 1 {
		t.Errorf("nil plan has %d shards, want 1", p.Shards())
	}
	for _, c := range []int{-1, 0, 3} {
		if got := p.Of(c); got != 0 {
			t.Errorf("nil plan puts cluster %d on shard %d, want 0", c, got)
		}
	}
	if got := PlanForWeights(even(4), 2).Shards(); got != 2 {
		t.Errorf("PlanForWeights(4 clusters, 2).Shards() = %d, want 2", got)
	}
}

// countdown is busy on each of its first left cycles, then parks.
type countdown struct{ left int }

func (c *countdown) Tick(now sim.Cycle) bool {
	if c.left == 0 {
		return false
	}
	c.left--
	return true
}

func (c *countdown) NextWake(now sim.Cycle) sim.Cycle {
	if c.left == 0 {
		return sim.CycleMax
	}
	return now + 1
}

func (c *countdown) SetWaker(*sim.Waker) {}

func TestCoordinatorRunUntilIdle(t *testing.T) {
	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	cds := []*countdown{{left: 5}, {left: 9}}
	for i, e := range engines {
		e.Register("cd", cds[i])
	}
	c := NewCoordinator(engines)
	idle := []func() bool{
		func() bool { return cds[0].left == 0 },
		func() bool { return cds[1].left == 0 },
	}
	ret, err := c.RunUntil(idle, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// The slower shard is busy through cycle 9; both clocks must agree.
	if ret != 9 {
		t.Errorf("RunUntil returned cycle %d, want 9", ret)
	}
	for i, e := range engines {
		if e.Now() != ret {
			t.Errorf("shard %d clock %d, coordinator returned %d", i, e.Now(), ret)
		}
	}
}

// TestCoordinatorOneShardIsTheEngine pins the one-shard fast path: the
// coordinator stops where the engine's own RunUntil stops, with the
// same verdict, charges the host time to the engine's clock, and
// reports no boundary flows.
func TestCoordinatorOneShardIsTheEngine(t *testing.T) {
	serial := sim.NewEngine()
	serial.Register("cd", &countdown{left: 7})
	want, wantErr := serial.RunUntil(func() bool { return false }, 1000)

	eng := sim.NewEngine()
	eng.Register("cd", &countdown{left: 7})
	c := NewCoordinator([]*sim.Engine{eng})
	got, err := c.RunUntil([]func() bool{func() bool { return false }}, 1000)
	if got != want || eng.Rounds() != serial.Rounds() || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Errorf("one shard stopped at %d after %d rounds (%v), engine at %d after %d (%v)",
			got, eng.Rounds(), err, want, serial.Rounds(), wantErr)
	}
	if eng.WallTime() <= 0 {
		t.Errorf("host time: engine %v, want > 0", eng.WallTime())
	}
	if flows := c.BoundaryFlows(); flows != nil {
		t.Errorf("one shard reports boundary flows: %+v", flows)
	}
}

// TestCoordinatorLimitErrorMatchesSerial pins error-text compatibility:
// callers match on the serial engine's error strings.
func TestCoordinatorLimitErrorMatchesSerial(t *testing.T) {
	serial := sim.NewEngine()
	serial.Register("cd", &countdown{left: 1 << 30})
	_, serialErr := serial.RunUntil(func() bool { return false }, 50)
	if serialErr == nil {
		t.Fatal("serial engine did not hit the limit")
	}

	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	for _, e := range engines {
		e.Register("cd", &countdown{left: 1 << 30})
	}
	c := NewCoordinator(engines)
	never := []func() bool{func() bool { return false }, func() bool { return false }}
	_, err := c.RunUntil(never, 50)
	if err == nil || err.Error() != serialErr.Error() {
		t.Errorf("limit error %q, serial says %q", err, serialErr)
	}
}

func TestCoordinatorRejectsPredicateMismatch(t *testing.T) {
	c := NewCoordinator([]*sim.Engine{sim.NewEngine(), sim.NewEngine()})
	if _, err := c.RunUntil([]func() bool{func() bool { return true }}, 10); err == nil ||
		!strings.Contains(err.Error(), "idle predicates") {
		t.Fatalf("predicate-count mismatch accepted: %v", err)
	}
}

// TestBarrierOrdersWrites hammers the sense-reversing barrier: every
// worker increments a plain (non-atomic) counter slot between waits and
// reads all the others after; the barrier's happens-before must make
// every round's writes visible (run under -race this is also the data
// race check the epoch protocol relies on).
func TestBarrierOrdersWrites(t *testing.T) {
	const workers, rounds = 4, 500
	bar := &barrier{n: workers}
	counts := make([]int, workers*8) // padded slots, one per worker
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				counts[w*8] = r
				bar.wait()
				for o := 0; o < workers; o++ {
					if got := counts[o*8]; got != r {
						t.Errorf("round %d: worker %d sees slot %d at %d", r, w, o, got)
						return
					}
				}
				bar.wait()
			}
		}(w)
	}
	wg.Wait()
}
