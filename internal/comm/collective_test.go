package comm

import (
	"reflect"
	"strings"
	"testing"
)

// TestRingAllReducePerGPUBytes pins the ring's closed form: when the
// buffer splits into equal shards, every GPU sends exactly
// 2·(N−1)/N·size — the bandwidth-optimality property the pattern is
// chosen for.
func TestRingAllReducePerGPUBytes(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8} {
		size := n * LineBytes * 16 // divides into equal line-multiple shards
		p, err := ByName("ring-allreduce", Scale{GPUs: n, Bytes: size, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(2 * (n - 1) * size / n)
		for g, got := range p.BytesBySrc() {
			if got != want {
				t.Errorf("N=%d: GPU %d sends %d bytes, want 2·(N−1)/N·size = %d", n, g, got, want)
			}
		}
	}
}

// TestCollectiveTotalBytes pins each pattern's aggregate traffic
// against its structural formula, for sizes that do not split evenly.
func TestCollectiveTotalBytes(t *testing.T) {
	const size = 100_000 // deliberately not a multiple of N·LineBytes
	for _, n := range []int{2, 3, 4, 5, 8} {
		sc := Scale{GPUs: n, Bytes: size, Micro: 4, Group: 2, Layers: 3, Seed: 1}
		cases := []struct {
			name string
			want int64
		}{
			{"ring-allreduce", int64(2 * (n - 1) * size)},
			{"tree-allreduce", int64(2 * (n - 1) * size)},
			{"alltoall", int64(n * size)},
			{"pipeline", int64(4 * (n - 1) * size)},
			{"tensor", int64(3 * n * size)},
		}
		for _, c := range cases {
			p, err := ByName(c.name, sc)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.TotalBytes(); got != c.want {
				t.Errorf("N=%d %s: total %d bytes, want %d", n, c.name, got, c.want)
			}
			if err := p.Validate(); err != nil {
				t.Errorf("N=%d %s: %v", n, c.name, err)
			}
		}
	}
}

// TestAllToAllPerGPUBytes: every participant sends its full buffer,
// spread over the N−1 peers.
func TestAllToAllPerGPUBytes(t *testing.T) {
	const size = 64 * 1024
	p, err := ByName("alltoall", Scale{GPUs: 5, Bytes: size, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for g, got := range p.BytesBySrc() {
		if got != size {
			t.Errorf("GPU %d sends %d, want %d", g, got, size)
		}
	}
}

// TestPipelinePerGPUBytes: every stage but the last forwards each
// microbatch once.
func TestPipelinePerGPUBytes(t *testing.T) {
	sc := Scale{GPUs: 4, Bytes: 4096, Micro: 6, Seed: 1}
	p, err := ByName("pipeline", sc)
	if err != nil {
		t.Fatal(err)
	}
	by := p.BytesBySrc()
	for g := 0; g < 3; g++ {
		if by[g] != int64(6*4096) {
			t.Errorf("stage %d sends %d, want %d", g, by[g], 6*4096)
		}
	}
	if by[3] != 0 {
		t.Errorf("last stage sends %d, want 0", by[3])
	}
}

// TestChunkingPreservesTotals: splitting transfers into chunks changes
// the send count, never the bytes or the step structure.
func TestChunkingPreservesTotals(t *testing.T) {
	for _, name := range []string{"ring-allreduce", "tree-allreduce", "alltoall", "pipeline", "tensor"} {
		whole, err := ByName(name, Scale{GPUs: 4, Bytes: 32 << 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		split, err := ByName(name, Scale{GPUs: 4, Bytes: 32 << 10, ChunkBytes: 1 << 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(split.Sends) <= len(whole.Sends) {
			t.Errorf("%s: chunking did not split (%d vs %d sends)", name, len(split.Sends), len(whole.Sends))
		}
		if whole.TotalBytes() != split.TotalBytes() {
			t.Errorf("%s: chunking changed total bytes: %d vs %d", name, whole.TotalBytes(), split.TotalBytes())
		}
		if !reflect.DeepEqual(whole.BytesBySrc(), split.BytesBySrc()) {
			t.Errorf("%s: chunking changed per-GPU bytes", name)
		}
	}
}

// TestPlansPresized: every generator sizes its send slice exactly, so
// generation never regrows it. The scales cover chunked and unchunked
// transfers, chunk sizes that do and do not divide the transfer, and
// totals too small to give every shard a line (zero-byte shards, which
// generate no send).
func TestPlansPresized(t *testing.T) {
	scales := []Scale{
		Tiny(),
		Small(),
		{Bytes: 100_000, ChunkBytes: 3000, Seed: 1},
		{Bytes: 200, Seed: 1},
		{Bytes: 200, ChunkBytes: 64, Seed: 1},
	}
	for _, name := range Names() {
		for _, n := range []int{2, 3, 5, 8, 64} {
			for si, sc := range scales {
				sc.GPUs = n
				p, err := ByName(name, sc)
				if err != nil {
					t.Fatalf("%s N=%d scale %d: %v", name, n, si, err)
				}
				if cap(p.Sends) != len(p.Sends) {
					t.Errorf("%s N=%d scale %d: cap(Sends) = %d, len = %d", name, n, si, cap(p.Sends), len(p.Sends))
				}
			}
		}
	}
}

// TestCollectiveDeterminism: generation is a pure function of the
// scale.
func TestCollectiveDeterminism(t *testing.T) {
	for _, name := range Names() {
		a, err := ByName(name, Scale{GPUs: 4, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ByName(name, Scale{GPUs: 4, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations with one seed differ", name)
		}
	}
}

// TestByNameUnknown: the comm selector lists valid programs and
// suggests near-misses, like the workload selector.
func TestByNameUnknown(t *testing.T) {
	_, err := ByName("ring-allreduc", Scale{GPUs: 4})
	if err == nil {
		t.Fatal("unknown program accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `did you mean "ring-allreduce"?`) {
		t.Errorf("error %q missing suggestion", msg)
	}
	for _, n := range Names() {
		if !strings.Contains(msg, n) {
			t.Errorf("error %q does not list %s", msg, n)
		}
	}
	if _, err := ByName("ring-allreduce", Scale{GPUs: 1}); err == nil {
		t.Fatal("single-GPU plan accepted")
	}
}

// TestSplitBytes: shards differ by at most one line and sum exactly.
func TestSplitBytes(t *testing.T) {
	for _, c := range []struct{ total, n int }{{1000, 3}, {64, 4}, {0, 2}, {127, 2}, {64 * 9, 4}} {
		shards := splitBytes(c.total, c.n)
		sum := 0
		for _, s := range shards {
			sum += s
		}
		if sum != c.total {
			t.Errorf("splitBytes(%d,%d) sums to %d", c.total, c.n, sum)
		}
	}
}
