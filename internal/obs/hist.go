package obs

import (
	"math"
	"math/bits"
	"sync"
)

// logBucketCount is one bucket per power of two of the observed value
// plus bucket 0 for values below 1 — enough for the full int64 cycle
// range.
const logBucketCount = 64

// LogBuckets is a log2-bucketed distribution over non-negative scalars
// (latencies in cycles, sizes in bytes). Bucket i holds values in
// [2^(i-1), 2^i); bucket 0 holds values below 1. It retains exact
// count, sum and max, so Mean and Max are exact while quantiles are
// bucket-resolution estimates (within 2x). The zero value is ready to
// use. LogBuckets is a value type with no internal locking — embed it
// in single-threaded aggregates (Breakdown does), or use Hist for a
// concurrent instrument.
type LogBuckets struct {
	counts [logBucketCount]int64
	n      int64
	sum    float64
	max    float64
}

// bucketOf returns the bucket index for v.
func bucketOf(v float64) int {
	if v < 1 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= logBucketCount {
		b = logBucketCount - 1
	}
	return b
}

// Observe records one sample. Negative samples clamp to 0.
func (b *LogBuckets) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	b.counts[bucketOf(v)]++
	b.n++
	b.sum += v
	if v > b.max {
		b.max = v
	}
}

// Count returns the number of samples.
func (b LogBuckets) Count() int64 { return b.n }

// Sum returns the total of all samples.
func (b LogBuckets) Sum() float64 { return b.sum }

// Mean returns the exact sample mean (0 with no samples).
func (b LogBuckets) Mean() float64 {
	if b.n == 0 {
		return 0
	}
	return b.sum / float64(b.n)
}

// Max returns the exact largest sample.
func (b LogBuckets) Max() float64 { return b.max }

// Quantile estimates the q-quantile (q in [0,1]) as the midpoint of the
// bucket holding the q-th sample, clamped to the observed maximum.
func (b LogBuckets) Quantile(q float64) float64 {
	if b.n == 0 {
		return 0
	}
	if q >= 1 {
		return b.max
	}
	if q < 0 {
		q = 0
	}
	// Rank of the sample we are after (1-based, ceil).
	rank := int64(math.Ceil(q * float64(b.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range b.counts {
		seen += c
		if seen >= rank {
			lo, hi := bucketBounds(i)
			mid := (lo + hi) / 2
			if mid > b.max {
				mid = b.max
			}
			return mid
		}
	}
	return b.max
}

// bucketBounds returns the [lo, hi) value range of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return math.Ldexp(1, i-1), math.Ldexp(1, i)
}

// Merge folds o into b. The merged max stays exact; quantiles keep
// bucket resolution.
func (b *LogBuckets) Merge(o *LogBuckets) {
	for i := range b.counts {
		b.counts[i] += o.counts[i]
	}
	b.n += o.n
	b.sum += o.sum
	if o.max > b.max {
		b.max = o.max
	}
}

// Hist is a named concurrent log-bucketed histogram. A nil *Hist
// records nothing and allocates nothing.
type Hist struct {
	name string
	mu   sync.Mutex
	b    LogBuckets
}

// Observe records one sample.
func (h *Hist) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.b.Observe(v)
	h.mu.Unlock()
}

// Name returns the histogram's registered name.
func (h *Hist) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Count returns the number of samples (0 for nil).
func (h *Hist) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.b.Count()
}

// Mean returns the exact sample mean (0 for nil).
func (h *Hist) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.b.Mean()
}

// Max returns the exact largest sample (0 for nil).
func (h *Hist) Max() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.b.Max()
}

// Quantile estimates the q-quantile (0 for nil).
func (h *Hist) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.b.Quantile(q)
}

// snapshot returns a copy of the underlying buckets.
func (h *Hist) snapshot() LogBuckets {
	if h == nil {
		return LogBuckets{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.b
}
