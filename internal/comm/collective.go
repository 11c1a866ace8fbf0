package comm

import "fmt"

// The collective generators. Each lowers one textbook communication
// pattern to a Plan: per-GPU send sequences ordered by Step (the
// per-rank phase barrier — an injector starts step s+1 only after its
// own step-s sends are acknowledged), with each logical transfer
// optionally split into ChunkBytes pieces that pipeline within the
// step. All sends carry At 0: collective timing emerges from the step
// structure and fabric backpressure, not a wall-clock schedule.

func init() {
	register("ring-allreduce", buildRingAllReduce)
	register("tree-allreduce", buildTreeAllReduce)
	register("alltoall", buildAllToAll)
	register("pipeline", buildPipeline)
	register("tensor", buildTensor)
}

// buildRingAllReduce is the bandwidth-optimal ring: N-1 reduce-scatter
// steps then N-1 all-gather steps, each GPU forwarding one rotating
// shard of the buffer to its ring successor per step. Every GPU sends
// 2·(N-1)/N·Bytes in total (exactly, when Bytes divides into equal
// shards).
func buildRingAllReduce(sc Scale) (*Plan, error) {
	n := sc.GPUs
	shards := splitBytes(sc.Bytes, n)
	p := &Plan{Name: "ring-allreduce", GPUs: n}
	// Each step forwards every shard once.
	p.Sends = presized(2 * (n - 1) * sumChunks(shards, sc.ChunkBytes))
	for s := 0; s < n-1; s++ {
		for i := 0; i < n; i++ {
			p.Sends = chunked(p.Sends, Send{
				Src: i, Dst: (i + 1) % n, Bytes: shards[((i-s)%n+n)%n],
				Step: s, Req: -1, Tag: "rs",
			}, sc.ChunkBytes)
		}
	}
	for s := 0; s < n-1; s++ {
		for i := 0; i < n; i++ {
			p.Sends = chunked(p.Sends, Send{
				Src: i, Dst: (i + 1) % n, Bytes: shards[((i+1-s)%n+n)%n],
				Step: n - 1 + s, Req: -1, Tag: "ag",
			}, sc.ChunkBytes)
		}
	}
	return p, nil
}

// treeLevel returns node i's depth in the implicit binary tree rooted
// at 0 (parent of i is (i-1)/2).
func treeLevel(i int) int {
	l := 0
	for i > 0 {
		i = (i - 1) / 2
		l++
	}
	return l
}

// buildTreeAllReduce reduces up a binary tree (leaves first, each
// non-root sending its full buffer to its parent) then broadcasts the
// result back down (each parent sending the buffer to its children) —
// the latency-optimal shape for small messages.
func buildTreeAllReduce(sc Scale) (*Plan, error) {
	n := sc.GPUs
	depth := treeLevel(n - 1)
	p := &Plan{Name: "tree-allreduce", GPUs: n}
	p.Sends = presized(2 * (n - 1) * chunks(sc.Bytes, sc.ChunkBytes))
	// Reduce: a node at level l has all its children's contributions
	// after step depth-l-1, so it sends at step depth-l.
	for i := 1; i < n; i++ {
		p.Sends = chunked(p.Sends, Send{
			Src: i, Dst: (i - 1) / 2, Bytes: sc.Bytes,
			Step: depth - treeLevel(i), Req: -1, Tag: "red",
		}, sc.ChunkBytes)
	}
	// Broadcast: child c at level l receives at step depth+l-1.
	for c := 1; c < n; c++ {
		p.Sends = chunked(p.Sends, Send{
			Src: (c - 1) / 2, Dst: c, Bytes: sc.Bytes,
			Step: depth + treeLevel(c) - 1, Req: -1, Tag: "bc",
		}, sc.ChunkBytes)
	}
	return p, nil
}

// buildAllToAll is the rotation (shift) schedule: at step k each GPU i
// exchanges with partner (i+k)%N, so every pairwise slice crosses the
// fabric without endpoint contention. Each GPU sends Bytes in total,
// split evenly over its N-1 peers.
func buildAllToAll(sc Scale) (*Plan, error) {
	n := sc.GPUs
	shares := splitBytes(sc.Bytes, n-1)
	p := &Plan{Name: "alltoall", GPUs: n}
	p.Sends = presized(n * sumChunks(shares, sc.ChunkBytes))
	for k := 1; k < n; k++ {
		for i := 0; i < n; i++ {
			p.Sends = chunked(p.Sends, Send{
				Src: i, Dst: (i + k) % n, Bytes: shares[k-1],
				Step: k - 1, Req: -1, Tag: "a2a",
			}, sc.ChunkBytes)
		}
	}
	return p, nil
}

// buildPipeline is the pipeline-parallel wavefront: Micro microbatches
// of Bytes activations flow through the GPU chain 0→1→…→N-1, stage i
// forwarding microbatch m at step m+i (the classic GPipe fill/drain
// diagonal).
func buildPipeline(sc Scale) (*Plan, error) {
	n := sc.GPUs
	p := &Plan{Name: "pipeline", GPUs: n}
	p.Sends = presized(sc.Micro * (n - 1) * chunks(sc.Bytes, sc.ChunkBytes))
	for m := 0; m < sc.Micro; m++ {
		for i := 0; i < n-1; i++ {
			p.Sends = chunked(p.Sends, Send{
				Src: i, Dst: i + 1, Bytes: sc.Bytes,
				Step: m + i, Req: -1, Tag: "act",
			}, sc.ChunkBytes)
		}
	}
	return p, nil
}

// buildTensor is the tensor-parallel exchange: GPUs partition into
// groups of Group consecutive ranks; every layer performs an
// all-gather
// within each group (each member sending an even share of Bytes to
// every other member). Group is rounded down to a divisor of GPUs.
func buildTensor(sc Scale) (*Plan, error) {
	n := sc.GPUs
	g := sc.Group
	if g > n {
		g = n
	}
	for g > 1 && n%g != 0 {
		g--
	}
	if g < 2 {
		for g = 2; g < n && n%g != 0; g++ {
		}
	}
	if n%g != 0 {
		return nil, fmt.Errorf("comm: tensor: no group size >= 2 divides %d GPUs", n)
	}
	shares := splitBytes(sc.Bytes, g-1)
	p := &Plan{Name: "tensor", GPUs: n}
	// Every rank sends each of the g-1 shares once per layer.
	p.Sends = presized(sc.Layers * n * sumChunks(shares, sc.ChunkBytes))
	for l := 0; l < sc.Layers; l++ {
		for base := 0; base < n; base += g {
			for a := 0; a < g; a++ {
				k := 0
				for b := 0; b < g; b++ {
					if b == a {
						continue
					}
					p.Sends = chunked(p.Sends, Send{
						Src: base + a, Dst: base + b, Bytes: shares[k],
						Step: l, Req: -1, Tag: "tp",
					}, sc.ChunkBytes)
					k++
				}
			}
		}
	}
	return p, nil
}
