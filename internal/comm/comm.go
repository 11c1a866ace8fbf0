// Package comm generates timed communication programs for the
// multi-GPU fabric — the distributed-AI traffic shapes the single-
// kernel memory traces of internal/workload cannot express. Three
// families share one representation:
//
//   - Collective patterns (ring and tree all-reduce, all-to-all,
//     pipeline- and tensor-parallel exchanges), parameterized by
//     message size, chunking and participant count, lowered to
//     per-GPU timed send sequences with step barriers.
//   - An open-loop inference-serving workload: Poisson or bursty
//     request arrivals at a configured QPS, each request expanding
//     into a batched KV-cache-like transfer fan-in, with per-request
//     end-to-end latency tracked so p50/p99/p999 tail latency — not
//     per-packet statistics — is the headline metric.
//   - A JSONL trace-replay format (one {"t","src","dst","bytes",...}
//     object per line), so third-party traces replay through the same
//     injector and report the same metrics as the generators.
//
// A Plan is pure data; cluster.System.RunComm lowers it onto the
// simulated machine through per-GPU Injectors that participate in the
// wake-scheduled engine and issue line-sized posted writes through
// gpu.RDMA under pooled txn transactions. The analytic flow backend
// (internal/flow) executes the same plans without injectors.
//
// # Concurrency and ownership
//
// Plan generation is pure: builders (ByName) derive everything from
// the Scale's seed and return a freshly allocated Plan the caller
// owns. A Plan is never mutated by execution — both backends only
// read it — so one Plan may be run concurrently on any number of
// private systems or networks (the bench worker pool does exactly
// this). Tracker, Injector and Options.Hist/Dwell sinks, by contrast,
// belong to one engine: they are single-goroutine state touched only
// from that engine's tick loop, never shared across systems. Each Run
// returns a fresh Result owned by the caller.
package comm

import (
	"fmt"
	"sort"

	"netcrafter/internal/names"
	"netcrafter/internal/sim"
)

// LineBytes is the transfer granularity: every send is issued as
// line-sized posted remote writes, matching the cache-line granularity
// of the memory system underneath.
const LineBytes = 64

// Send is one timed point-to-point transfer of a plan.
type Send struct {
	// At is the earliest issue cycle, relative to the plan's start.
	At sim.Cycle
	// Src and Dst are participant GPU ids. A send to self completes at
	// issue without touching the network.
	Src, Dst int
	// Bytes is the transfer size.
	Bytes int
	// Step orders a GPU's sends into synchronized phases: an injector
	// does not start a step until every one of its own earlier-step
	// sends has been acknowledged (the per-rank dependency structure of
	// a collective; the cross-rank data dependency is implied because
	// every rank advances steps at its own acknowledged pace).
	Step int
	// Req links the send to a plan Request (-1: none). Request latency
	// is the arrival-to-last-acknowledgment span over its sends.
	Req int
	// Tag is a free-form label carried into traces ("rs", "ag", "kv").
	Tag string
}

// Request is one tracked unit of work (an inference request): its
// sends are tagged with the request index, and the run reports the
// arrival-to-completion latency distribution over all requests.
type Request struct {
	// Arrival is the request's arrival cycle relative to plan start.
	Arrival sim.Cycle
	// Transfers is the number of sends the request expands into.
	Transfers int
	// Bytes is the total payload over those sends.
	Bytes int
}

// Plan is a complete communication program: the participant set and
// every timed send, plus the request table for open-loop workloads.
type Plan struct {
	Name string
	// GPUs is the participant count; sends address GPUs [0, GPUs).
	GPUs  int
	Sends []Send
	// Requests is non-empty for open-loop workloads; Send.Req indexes
	// into it.
	Requests []Request
}

// TotalBytes sums the payload over all sends.
func (p *Plan) TotalBytes() int64 {
	var n int64
	for _, s := range p.Sends {
		n += int64(s.Bytes)
	}
	return n
}

// BytesBySrc returns the payload each participant sends.
func (p *Plan) BytesBySrc() []int64 {
	out := make([]int64, p.GPUs)
	for _, s := range p.Sends {
		out[s.Src] += int64(s.Bytes)
	}
	return out
}

// Validate checks the plan is executable: participants in range,
// positive sizes, request links valid.
func (p *Plan) Validate() error {
	if p.GPUs < 1 {
		return fmt.Errorf("comm: plan %q has %d GPUs", p.Name, p.GPUs)
	}
	for i, s := range p.Sends {
		if s.Src < 0 || s.Src >= p.GPUs || s.Dst < 0 || s.Dst >= p.GPUs {
			return fmt.Errorf("comm: plan %q send %d: src %d dst %d out of range [0,%d)",
				p.Name, i, s.Src, s.Dst, p.GPUs)
		}
		if s.Bytes <= 0 {
			return fmt.Errorf("comm: plan %q send %d: %d bytes", p.Name, i, s.Bytes)
		}
		if s.Step < 0 {
			return fmt.Errorf("comm: plan %q send %d: negative step", p.Name, i)
		}
		if s.Req < -1 || s.Req >= len(p.Requests) {
			return fmt.Errorf("comm: plan %q send %d: request %d out of range (have %d)",
				p.Name, i, s.Req, len(p.Requests))
		}
	}
	return nil
}

// Scale sizes a communication program. Like workload.Scale, the knobs
// make one generator family span unit-test to benchmark sizes.
type Scale struct {
	// GPUs is the participant count (0: the runner substitutes the
	// system's GPU count).
	GPUs int
	// Bytes is the collective payload per participant (the all-reduce
	// buffer size, the per-peer all-to-all slice total, the pipeline
	// activation size).
	Bytes int
	// ChunkBytes splits each logical transfer into pipelined chunks
	// (0: one chunk). Chunking within a step overlaps a step's sends.
	ChunkBytes int
	// Micro is the microbatch count of the pipeline schedule.
	Micro int
	// Group is the tensor-parallel group size (divides GPUs; a
	// non-divisor is rounded down to one that divides).
	Group int
	// Layers is the layer count of the tensor-parallel schedule.
	Layers int
	// Requests is the open-loop request count.
	Requests int
	// QPS is the open-loop arrival rate in requests per second of
	// simulated time (1 GHz clock: QPS 1e6 = one request per 1000
	// cycles on average).
	QPS float64
	// Burst groups arrivals: Burst requests arrive back to back, then
	// the line goes quiet until the next burst (serve-burst only).
	Burst int
	// KVBlocks and KVBytes shape one request's transfer pattern:
	// KVBlocks cache blocks of KVBytes each, fetched from distinct
	// peers onto the serving GPU.
	KVBlocks int
	KVBytes  int
	// Seed drives arrival times and request placement.
	Seed uint64
}

// Tiny returns a scale for unit tests.
func Tiny() Scale {
	return Scale{
		Bytes: 32 << 10, ChunkBytes: 4 << 10, Micro: 4, Group: 2, Layers: 2,
		Requests: 32, QPS: 2e6, Burst: 4, KVBlocks: 4, KVBytes: 2 << 10, Seed: 1,
	}
}

// Small returns the default scale for benchmarks and examples.
func Small() Scale {
	return Scale{
		Bytes: 256 << 10, ChunkBytes: 16 << 10, Micro: 8, Group: 2, Layers: 4,
		Requests: 192, QPS: 1e6, Burst: 8, KVBlocks: 8, KVBytes: 4 << 10, Seed: 1,
	}
}

// withDefaults fills unset knobs from the Tiny preset so a partially
// specified scale (just GPUs and Bytes, say) still generates.
func (sc Scale) withDefaults() Scale {
	d := Tiny()
	if sc.Bytes == 0 {
		sc.Bytes = d.Bytes
	}
	if sc.Micro == 0 {
		sc.Micro = d.Micro
	}
	if sc.Group == 0 {
		sc.Group = d.Group
	}
	if sc.Layers == 0 {
		sc.Layers = d.Layers
	}
	if sc.Requests == 0 {
		sc.Requests = d.Requests
	}
	if sc.QPS == 0 {
		sc.QPS = d.QPS
	}
	if sc.Burst == 0 {
		sc.Burst = d.Burst
	}
	if sc.KVBlocks == 0 {
		sc.KVBlocks = d.KVBlocks
	}
	if sc.KVBytes == 0 {
		sc.KVBytes = d.KVBytes
	}
	if sc.Seed == 0 {
		sc.Seed = d.Seed
	}
	return sc
}

// builders is the registry of named program generators.
var builders = map[string]func(Scale) (*Plan, error){}

func register(name string, b func(Scale) (*Plan, error)) {
	if _, dup := builders[name]; dup {
		panic("comm: duplicate " + name)
	}
	builders[name] = b
}

// Names lists the communication programs, sorted.
func Names() []string {
	out := make([]string, 0, len(builders))
	for n := range builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByName generates the named program at the given scale. An unknown
// name fails with the sorted list of valid programs and, for plausible
// typos, a did-you-mean suggestion.
func ByName(name string, sc Scale) (*Plan, error) {
	b, ok := builders[name]
	if !ok {
		return nil, names.Unknown("comm", name, Names())
	}
	if sc.GPUs < 2 {
		return nil, fmt.Errorf("comm: %s needs at least 2 GPUs, got %d", name, sc.GPUs)
	}
	p, err := b(sc.withDefaults())
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// splitBytes splits total into n shards differing by at most one line:
// whole lines go round-robin, the sub-line remainder lands on shard 0.
// Shards can be zero for tiny totals.
func splitBytes(total, n int) []int {
	out := make([]int, n)
	lines := total / LineBytes
	rem := total % LineBytes
	for i := range out {
		out[i] = (lines / n) * LineBytes
	}
	for i := 0; i < lines%n; i++ {
		out[i] += LineBytes
	}
	out[0] += rem
	return out
}

// chunks is how many sends chunked appends for a transfer of bytes:
// none for an empty transfer, else ceil(bytes/chunk) (one when chunk
// is unset or at least bytes).
func chunks(bytes, chunk int) int {
	switch {
	case bytes <= 0:
		return 0
	case chunk <= 0 || chunk >= bytes:
		return 1
	}
	return (bytes + chunk - 1) / chunk
}

// sumChunks is chunks summed over transfers of each size in sizes.
func sumChunks(sizes []int, chunk int) int {
	total := 0
	for _, b := range sizes {
		total += chunks(b, chunk)
	}
	return total
}

// presized returns an empty send slice with room for exactly n sends,
// the count a generator's loops will append (a negative knob such as
// Micro makes those loops append nothing).
func presized(n int) []Send { return make([]Send, 0, max(n, 0)) }

// chunked appends the send split into ChunkBytes pieces (same step, so
// chunks of one logical transfer pipeline freely within the step).
func chunked(sends []Send, s Send, chunk int) []Send {
	if s.Bytes <= 0 {
		return sends
	}
	if chunk <= 0 || chunk >= s.Bytes {
		return append(sends, s)
	}
	left := s.Bytes
	for left > 0 {
		c := s
		c.Bytes = chunk
		if left < chunk {
			c.Bytes = left
		}
		sends = append(sends, c)
		left -= c.Bytes
	}
	return sends
}
