// Package shard runs one simulation partitioned across goroutines:
// conservative parallel discrete-event simulation over the cluster
// graph, partitioned at cluster-boundary links, bit-identical to the
// serial engine.
//
// # Partitioning
//
// A Plan maps clusters to shards (contiguous blocks, backbone switches
// to shard 0). Every component — GPUs, switches, controllers, links,
// the per-shard scheduler — is owned by exactly one shard and is
// registered in that shard's own sim.Engine, preserving the serial
// registration order filtered to ownership (registration order is part
// of the simulated machine's definition). The only cross-shard edges
// are the directions of boundary links whose endpoints landed in
// different shards; each such direction becomes a network.HalfLink in
// the source shard plus a staged-flit handoff into the destination
// port's In queue, exchanged at epoch barriers.
//
// # Lockstep epochs
//
// The Coordinator advances all shard engines in lockstep, one
// processed cycle per epoch, with a single sense-reversing barrier per
// epoch. Every boundary link has at least one cycle of propagation
// latency and queue visibility adds a cycle on top, so a flit staged
// during epoch k can never be consumed before cycle k+1 — delivering
// it at the start of epoch k+1 (before that epoch's tick round) is
// conservatively safe and exactly reproduces the serial delivery
// schedule.
//
// All cross-epoch shared state (exchange batches, back-pressure
// occupancy reports, busy/idle/next-due flags) is double-buffered by
// epoch parity: a worker writes slot k&1 during epoch k and reads slot
// (k-1)&1, so the one barrier per epoch is the only synchronization
// needed and the steady-state loop allocates nothing.
//
// # Bit-identical output
//
// The serial engine skips cycles no component can act in, and skipped
// cycles do not advance Engine.Rounds — which feeds round-robin
// arbitration in every switch. The coordinator therefore replicates
// the skip decision globally: after an epoch in which no shard's Step
// made progress, every worker computes the same wake-up cycle from all
// shards' published NextDue values (plus any just-published boundary
// batches) and applies the same Engine.SkipTo, keeping every shard's
// clock and round counter equal to the serial engine's at every
// processed cycle. Termination, cycle-limit and deadlock verdicts are
// evaluated in the serial RunUntil's exact order from the same
// published flags, so the stop cycle and error text match too.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netcrafter/internal/flit"
	"netcrafter/internal/network"
	"netcrafter/internal/sim"
)

// Plan assigns clusters to shards: contiguous cluster blocks, so the
// serial registration order filtered per shard keeps each shard's
// components contiguous and cache-friendly. The nil *Plan is the
// one-shard plan (serial execution): Of returns 0 and Shards 1.
type Plan struct {
	// N is the effective shard count (clamped to the cluster count).
	N         int
	byCluster []int
}

// PlanForWeights derives the partition for clusters with the given
// positive per-cluster weights (cluster.Build passes device counts,
// which topology validation keeps at one or more, so uneven fabrics
// split by GPU load, not cluster count): contiguous blocks cut where
// the weight prefix crosses each shard's even share. With equal
// weights cluster c lands on shard c*shards/clusters. Shard counts
// above the cluster count clamp down (a cluster is the unit of
// ownership); a count of one or less means serial execution and
// returns the nil (one-shard) plan. Shard indices left empty by
// heavily skewed weights are compacted away, so every shard of the
// returned plan owns at least one cluster; a plan that degenerates to
// one shard returns the nil plan too.
func PlanForWeights(weights []int, shards int) *Plan {
	nClusters := len(weights)
	if shards > nClusters {
		shards = nClusters
	}
	if shards <= 1 {
		return nil
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	p := &Plan{byCluster: make([]int, nClusters)}
	prefix := 0
	for c, w := range weights {
		p.byCluster[c] = prefix * shards / total
		prefix += w
	}
	// Compact: remap the (non-decreasing) raw shard indices onto
	// 0..N-1 with no gaps.
	used, last := 0, -1
	for c, sh := range p.byCluster {
		if sh != last {
			last = sh
			used++
		}
		p.byCluster[c] = used - 1
	}
	p.N = used
	if p.N <= 1 {
		return nil
	}
	return p
}

// Of returns the shard owning the given cluster. Backbone switches
// (cluster < 0, see topo.Backbone) belong to shard 0, and so does
// everything under the nil plan — the one-shard (serial) partition.
func (p *Plan) Of(cluster int) int {
	if p == nil || cluster < 0 {
		return 0
	}
	if cluster >= len(p.byCluster) {
		return p.N - 1
	}
	return p.byCluster[cluster]
}

// Shards returns the plan's shard count: N, or 1 for the nil plan.
func (p *Plan) Shards() int {
	if p == nil {
		return 1
	}
	return p.N
}

// direction is one cross-shard boundary-link direction: the staged-flit
// exchange slots plus conservation counters. All [2] arrays are indexed
// by epoch parity (write k&1, read (k-1)&1).
type direction struct {
	name     string
	from, to int

	// buf holds the staged batches: the producer publishes into
	// buf[k&1] at the end of epoch k, the consumer drains it at the
	// start of epoch k+1, and the producer reuses the backing array at
	// epoch k+2 — the intervening barrier orders drain before reuse.
	buf         [2][]network.Staged
	minReady    [2]sim.Cycle
	stagedBytes [2]int64
	// lenRep is the destination In queue's length as reported by the
	// consumer shard after each of its processed cycles; the producer
	// adds its own in-flight batch to reconstruct the exact occupancy
	// a serial Link's Full() check would see.
	lenRep [2]int

	// Cumulative conservation counters: what the producer staged out
	// of its shard versus what the consumer delivered into its queue.
	flitsOut, flitsIn int64
	bytesOut, bytesIn int64
}

type egressState struct {
	h *network.HalfLink
	d *direction
	// lastSent is the size of the batch this producer published at the
	// previous barrier (delivered by the consumer this epoch, hence not
	// yet reflected in the consumer's queue-length report).
	lastSent int
}

type ingressState struct {
	q *sim.Queue[*flit.Flit]
	d *direction
}

type shardState struct {
	eng     *sim.Engine
	egress  []*egressState
	ingress []*ingressState
	err     error // first conservation violation observed by this shard
}

// BoundaryFlow reports one boundary direction's cumulative traffic for
// conservation checks: everything staged out of the source shard must
// have been delivered into the destination shard.
type BoundaryFlow struct {
	Name     string
	From, To int
	FlitsOut, FlitsIn,
	BytesOut, BytesIn int64
}

// Coordinator is a system's run loop: it decides how many engines drive
// the simulation. cluster.Build makes one per system over its shard
// engines — a single engine when Config.Shards <= 1 — and every run
// drives through RunUntil. With one shard RunUntil is the engine's own
// RunUntil on the caller's goroutine: no workers, no barrier.
type Coordinator struct {
	shards []*shardState
	dirs   []*direction

	// Per-shard flags, published at the end of each epoch and read by
	// every worker after the barrier; parity-indexed like the batches.
	busy    [2][]bool
	idle    [2][]bool
	nextDue [2][]sim.Cycle

	wall time.Duration
}

// NewCoordinator creates a coordinator over the given shard engines
// (one per shard, in shard order).
func NewCoordinator(engines []*sim.Engine) *Coordinator {
	n := len(engines)
	c := &Coordinator{}
	for _, e := range engines {
		c.shards = append(c.shards, &shardState{eng: e})
	}
	for p := 0; p < 2; p++ {
		c.busy[p] = make([]bool, n)
		c.idle[p] = make([]bool, n)
		c.nextDue[p] = make([]sim.Cycle, n)
	}
	return c
}

// N returns the shard count.
func (c *Coordinator) N() int { return len(c.shards) }

// AddBoundary wires one cross-shard boundary-link direction: h is the
// half registered in shard from, dst the destination port's In queue
// owned by shard to.
func (c *Coordinator) AddBoundary(name string, from, to int, h *network.HalfLink, dst *sim.Queue[*flit.Flit]) {
	d := &direction{name: name, from: from, to: to}
	d.minReady[0], d.minReady[1] = sim.CycleMax, sim.CycleMax
	c.dirs = append(c.dirs, d)
	c.shards[from].egress = append(c.shards[from].egress, &egressState{h: h, d: d})
	c.shards[to].ingress = append(c.shards[to].ingress, &ingressState{q: dst, d: d})
}

// Wall returns the host wall-clock time spent inside RunUntil calls,
// at any shard count (shard engines stepped by workers never accumulate
// their own Engine.WallTime).
func (c *Coordinator) Wall() time.Duration { return c.wall }

// BoundaryFlows returns the cumulative per-direction boundary traffic,
// or nil when no link crosses shards.
func (c *Coordinator) BoundaryFlows() []BoundaryFlow {
	if len(c.dirs) == 0 {
		return nil
	}
	out := make([]BoundaryFlow, len(c.dirs))
	for i, d := range c.dirs {
		out[i] = BoundaryFlow{
			Name: d.name, From: d.from, To: d.to,
			FlitsOut: d.flitsOut, FlitsIn: d.flitsIn,
			BytesOut: d.bytesOut, BytesIn: d.bytesIn,
		}
	}
	return out
}

// RunUntil advances all shards in lockstep until every shard's idle
// predicate reports true or the cycle limit is reached — the sharded
// equivalent of Engine.RunUntil(done, limit) with done split per shard
// (valid because System.AllIdle is a conjunction over per-GPU state and
// GPUs are owned by shards). One shard runs its engine's RunUntil
// directly. Otherwise workers are spawned per call and joined before it
// returns, so the caller owns all simulation state outside the call
// exactly as with the serial engine.
func (c *Coordinator) RunUntil(idle []func() bool, limit sim.Cycle) (sim.Cycle, error) {
	start := time.Now()
	defer func() { c.wall += time.Since(start) }()
	n := len(c.shards)
	if len(idle) != n {
		return 0, fmt.Errorf("shard: %d idle predicates for %d shards", len(idle), n)
	}
	if n == 1 {
		return c.shards[0].eng.RunUntil(idle[0], limit)
	}
	// Spinning at the barrier only helps when every worker has its own
	// core; otherwise yield immediately so the runnable worker gets on.
	bar := &barrier{n: int32(n), spin: runtime.GOMAXPROCS(0) >= n}
	rets := make([]sim.Cycle, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range c.shards {
		go func(i int) {
			defer wg.Done()
			rets[i], errs[i] = c.run(i, idle[i], limit, bar)
		}(i)
	}
	wg.Wait()
	// Every worker derives the identical verdict from the same
	// published flags; shard 0 speaks for all.
	ret, err := rets[0], errs[0]
	if err == nil {
		for _, ss := range c.shards {
			if ss.err != nil {
				return ret, ss.err
			}
		}
	}
	return ret, err
}

// run is one shard's worker loop. Epoch k processes one simulated
// cycle: verdicts and the global skip decision from epoch k-1's
// published flags, drain of epoch k-1's boundary batches, back-pressure
// sync, one engine Step, then publication of this epoch's flags and
// batches, then the barrier. See the package comment for why each
// phase lands where it does.
func (c *Coordinator) run(i int, done func() bool, limit sim.Cycle, bar *barrier) (sim.Cycle, error) {
	ss := c.shards[i]
	eng := ss.eng

	// Entry publication (parity (0-1)&1 = 1): the initial idle state,
	// a busy=true sentinel so epoch 0 cannot take a skip decision
	// (serial never skips before stepping), and the current ingress
	// queue lengths so egress occupancy mirrors start exact even when
	// a previous RunUntil call left queues non-empty.
	c.busy[1][i] = true
	c.idle[1][i] = done()
	c.nextDue[1][i] = eng.NextDue()
	for _, in := range ss.ingress {
		in.d.lenRep[1] = in.q.Len()
	}
	for _, eg := range ss.egress {
		eg.lastSent = 0
	}
	bar.wait()

	for k := 0; ; k++ {
		p, q := k&1, (k-1)&1

		// (1) Global skip decision from the previous epoch's flags —
		// the tail of the serial loop iteration. When no shard made
		// progress, every worker computes the same wake-up cycle and
		// applies it, so clocks and round counters stay in lockstep
		// with the serial engine's.
		globalBusy := false
		for _, b := range c.busy[q] {
			if b {
				globalBusy = true
				break
			}
		}
		if !globalBusy {
			wake := sim.CycleMax
			for _, nd := range c.nextDue[q] {
				if nd < wake {
					wake = nd
				}
			}
			// Just-published batches can only be non-empty when some
			// shard was busy, so this is a conservative no-op — kept
			// so the skip can never overshoot an in-flight flit even
			// if a busy flag were ever wrong.
			for _, d := range c.dirs {
				if d.minReady[q] < wake {
					wake = d.minReady[q]
				}
			}
			if wake == sim.CycleMax {
				if c.allIdle(q) {
					return eng.Now(), nil
				}
				return eng.Now(), fmt.Errorf("sim: deadlock at cycle %d: no component has pending work", eng.Now())
			}
			eng.SkipTo(wake)
		}

		// (2) Loop-head verdicts, in the serial order: the cycle limit
		// guard first, then the done check.
		now := eng.Now()
		if now >= limit {
			if c.allIdle(q) {
				return now, nil
			}
			return now, fmt.Errorf("sim: cycle limit %d reached", limit)
		}
		if c.allIdle(q) {
			return now, nil
		}

		// (3) Drain the boundary batches published at the previous
		// barrier into this shard's ingress queues. PushAt re-arms the
		// consumer exactly as the serial Link's push did, and the
		// occupancy mirror guarantees room (the producer made the very
		// Full() decisions the serial link would have made).
		if k > 0 {
			for _, in := range ss.ingress {
				d := in.d
				var bytes int64
				for _, sf := range d.buf[q] {
					if !in.q.PushAt(sf.F, sf.ReadyAt) {
						if ss.err == nil {
							ss.err = fmt.Errorf("shard: boundary %s overflowed its destination queue at cycle %d", d.name, now)
						}
						continue
					}
					bytes += int64(sf.F.OccupiedBytes())
				}
				d.flitsIn += int64(len(d.buf[q]))
				d.bytesIn += bytes
				if bytes != d.stagedBytes[q] && ss.err == nil {
					ss.err = fmt.Errorf("shard: boundary %s conservation violated at cycle %d: %d bytes staged, %d delivered",
						d.name, now, d.stagedBytes[q], bytes)
				}
			}
		}

		// (4) Install the exact remote-queue occupancy for this cycle's
		// Full() checks: the consumer's post-last-cycle report plus the
		// batch we published at the last barrier (delivered this epoch,
		// after the report was taken).
		for _, eg := range ss.egress {
			eg.h.SyncOccupancy(eg.d.lenRep[q] + eg.lastSent)
		}

		// (5) Process one cycle.
		busy := eng.Step()

		// (6) Publish this epoch's flags, batches and queue lengths
		// into the parity-p slots, then cross the barrier.
		c.busy[p][i] = busy
		c.idle[p][i] = done()
		c.nextDue[p][i] = eng.NextDue()
		for _, eg := range ss.egress {
			d := eg.d
			batch := eg.h.TakeBatch(d.buf[p])
			d.buf[p] = batch
			eg.lastSent = len(batch)
			mr := sim.CycleMax
			var bytes int64
			for _, sf := range batch {
				bytes += int64(sf.F.OccupiedBytes())
				if sf.ReadyAt < mr {
					mr = sf.ReadyAt
				}
			}
			d.minReady[p] = mr
			d.stagedBytes[p] = bytes
			d.flitsOut += int64(len(batch))
			d.bytesOut += bytes
		}
		for _, in := range ss.ingress {
			in.d.lenRep[p] = in.q.Len()
		}
		bar.wait()
	}
}

// allIdle reports whether every shard's published idle flag (parity
// slot q) is set.
func (c *Coordinator) allIdle(q int) bool {
	for _, id := range c.idle[q] {
		if !id {
			return false
		}
	}
	return true
}

// barrier is a sense-reversing barrier over atomics. Arrival order
// establishes happens-before from every worker's pre-barrier writes to
// every worker's post-barrier reads (each Add synchronizes with the
// previous, and the generation bump synchronizes with every waiter's
// load), which is the only synchronization the epoch protocol needs.
type barrier struct {
	n     int32
	spin  bool
	count atomic.Int32
	gen   atomic.Uint32
}

// spinBudget bounds busy-waiting at the barrier before yielding the
// processor. Shard epochs are microseconds apart, so a short spin
// usually wins — but only when each worker has a core to itself.
const spinBudget = 4096

func (b *barrier) wait() {
	g := b.gen.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.gen.Add(1)
		return
	}
	spins := 0
	for b.gen.Load() == g {
		if b.spin && spins < spinBudget {
			spins++
			continue
		}
		runtime.Gosched()
	}
}
