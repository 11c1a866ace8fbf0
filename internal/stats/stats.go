// Package stats provides the lightweight metric primitives the
// simulator components publish into: counters, distributions, and the
// derived quantities the paper's figures report (network utilization,
// average latencies, MPKI, flit occupancy shares).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing count.
type Counter struct{ n int64 }

// Add increases the counter by d (d must be non-negative).
func (c *Counter) Add(d int64) {
	if d < 0 {
		panic("stats: Counter.Add with negative delta")
	}
	c.n += d
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Histogram is a bucketed distribution over named categories. It
// keeps its counts in a slice beside the bucket names, in first-seen
// order; Observe finds a bucket by a linear scan, which beats hashing
// the name at the handful of buckets a histogram holds.
type Histogram struct {
	names  []string
	counts []int64
}

// NewHistogram returns a histogram with the given (distinct) bucket
// order; buckets first observed later are appended.
func NewHistogram(buckets ...string) *Histogram {
	return &Histogram{
		names:  append([]string(nil), buckets...),
		counts: make([]int64, len(buckets)),
	}
}

// index returns the position of the named bucket, or -1.
func (h *Histogram) index(bucket string) int {
	for i, name := range h.names {
		if name == bucket {
			return i
		}
	}
	return -1
}

// Observe adds n to the named bucket.
func (h *Histogram) Observe(bucket string, n int64) {
	if i := h.index(bucket); i >= 0 {
		h.counts[i] += n
		return
	}
	h.names = append(h.names, bucket)
	h.counts = append(h.counts, n)
}

// Merge adds every bucket of o into h, in o's bucket order.
func (h *Histogram) Merge(o *Histogram) {
	for i, b := range o.names {
		h.Observe(b, o.counts[i])
	}
}

// Get returns the count in a bucket.
func (h *Histogram) Get(bucket string) int64 {
	if i := h.index(bucket); i >= 0 {
		return h.counts[i]
	}
	return 0
}

// Total returns the sum over all buckets.
func (h *Histogram) Total() int64 {
	var t int64
	for _, v := range h.counts {
		t += v
	}
	return t
}

// Share returns bucket/total in [0,1] (0 when empty).
func (h *Histogram) Share(bucket string) float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return float64(h.Get(bucket)) / float64(t)
}

// Buckets returns bucket names in observation order.
func (h *Histogram) Buckets() []string { return h.names }

// String renders "name=count" pairs for debugging.
func (h *Histogram) String() string {
	var b strings.Builder
	for i, name := range h.names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", name, h.counts[i])
	}
	return b.String()
}

// GeoMean returns the geometric mean of xs, the standard aggregate for
// normalized speedups. Zero and negative entries are rejected.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// SortedKeys returns the keys of m in sorted order; helper for
// deterministic report printing.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
