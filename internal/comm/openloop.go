package comm

import (
	"math"

	"netcrafter/internal/sim"
)

// The open-loop inference-serving generators. Arrivals are open-loop
// in the queueing-theory sense: request r arrives at its scheduled
// cycle whether or not earlier requests have finished, so a fabric
// that cannot keep up accumulates queueing delay and the latency tail
// grows — exactly the regime where p99/p999 diverges from p50. Each
// request expands into a KV-cache-like fan-in: KVBlocks blocks of
// KVBytes pulled from peer GPUs onto the serving GPU, all tagged with
// the request index so the run reports per-request end-to-end latency
// (arrival to last acknowledged transfer).

func init() {
	register("serve-poisson", buildServePoisson)
	register("serve-burst", buildServeBurst)
}

// meanGapCycles converts QPS to the mean inter-arrival gap at the
// 1 GHz clock (1 cycle = 1 ns).
func meanGapCycles(qps float64) float64 {
	if qps <= 0 {
		return 1e6
	}
	return 1e9 / qps
}

// poissonArrivals draws Requests exponential inter-arrival gaps from
// the scale's deterministic stream.
func poissonArrivals(sc Scale, rng *sim.Rand) []int64 {
	mean := meanGapCycles(sc.QPS)
	out := make([]int64, sc.Requests)
	t := 0.0
	for i := range out {
		// Inverse-CDF sampling; 1-u is in (0,1] so the log is finite.
		t += mean * -math.Log(1-rng.Float64())
		out[i] = int64(t)
	}
	return out
}

// burstArrivals groups arrivals into back-to-back bursts of Burst
// requests, spaced so the long-run rate still matches QPS — the same
// offered load as Poisson but maximally clumped, which is what pushes
// the far tail.
func burstArrivals(sc Scale, rng *sim.Rand) []int64 {
	mean := meanGapCycles(sc.QPS)
	burst := sc.Burst
	if burst < 1 {
		burst = 1
	}
	out := make([]int64, sc.Requests)
	t := 0.0
	for i := range out {
		if i%burst == 0 && i > 0 {
			t += mean * float64(burst) * -math.Log(1-rng.Float64())
		}
		out[i] = int64(t)
	}
	return out
}

func buildServePoisson(sc Scale) (*Plan, error) {
	rng := sim.NewRand(sc.Seed)
	return expandRequests("serve-poisson", sc, poissonArrivals(sc, rng), rng), nil
}

func buildServeBurst(sc Scale) (*Plan, error) {
	rng := sim.NewRand(sc.Seed)
	return expandRequests("serve-burst", sc, burstArrivals(sc, rng), rng), nil
}

// expandRequests turns an arrival schedule into the plan: each request
// picks a serving GPU and pulls KVBlocks blocks from peer GPUs onto
// it. All sends are step 0 — open-loop traffic has no barriers, only
// timestamps.
func expandRequests(name string, sc Scale, arrivals []int64, rng *sim.Rand) *Plan {
	n := sc.GPUs
	p := &Plan{
		Name: name, GPUs: n,
		Sends:    presized(len(arrivals) * sc.KVBlocks * chunks(sc.KVBytes, sc.ChunkBytes)),
		Requests: make([]Request, 0, len(arrivals)),
	}
	for r, at := range arrivals {
		serve := rng.Intn(n)
		total := 0
		before := len(p.Sends)
		for b := 0; b < sc.KVBlocks; b++ {
			owner := rng.Intn(n - 1)
			if owner >= serve {
				owner++
			}
			p.Sends = chunked(p.Sends, Send{
				At: sim.Cycle(at), Src: owner, Dst: serve, Bytes: sc.KVBytes,
				Step: 0, Req: r, Tag: "kv",
			}, sc.ChunkBytes)
			total += sc.KVBytes
		}
		p.Requests = append(p.Requests, Request{
			Arrival:   sim.Cycle(at),
			Transfers: len(p.Sends) - before,
			Bytes:     total,
		})
	}
	return p
}
