// Package obs is the simulator's unified observability layer: a metrics
// Registry of hierarchically named pull gauges, log-bucketed latency
// histograms and cycle-windowed time series, plus packet
// lifecycle spans that attribute a packet's end-to-end latency to the
// pipeline stages it crossed (injection, intra-cluster network, cluster
// queue, pooling, inter-cluster wire, reassembly, memory service).
//
// Everything here is disabled-by-default and free when disabled: a nil
// *Registry, *Hist, *Span or *SpanRecorder is valid, records nothing,
// and performs zero allocations, so component hot paths carry
// unconditional instrumentation calls without a cost when observability
// is off. Enabled instruments are safe for concurrent use.
//
// # Isolation contract
//
// The package holds no global mutable state: every instrument belongs
// to exactly one Registry and every span to one SpanRecorder, both
// plain values handed to cluster.System.AttachObs. The parallel
// benchmark harness relies on this — concurrent simulation cells each
// attach their own registry and cannot bleed counts into one another
// (pinned by TestRegistryIsolation under the race detector). Sharing a
// single registry between concurrent systems is also safe, merely
// aggregated: instruments are internally locked.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"netcrafter/internal/sim"
)

// Registry holds named instruments. Names are hierarchical dot paths
// ("gpu0.rdma.remote_reads"); the text exporter preserves them. A nil
// *Registry is valid: every lookup returns a nil instrument, so
// components can be wired unconditionally.
type Registry struct {
	mu       sync.Mutex
	gaugeFns map[string]func() float64
	hists    map[string]*Hist
	series   map[string]*Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		gaugeFns: make(map[string]func() float64),
		hists:    make(map[string]*Hist),
		series:   make(map[string]*Series),
	}
}

// GaugeFunc registers a pull gauge: f is evaluated at snapshot time.
// Components expose their existing internal counters this way without
// touching hot paths.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = f
}

// Hist returns (creating if needed) the named log-bucketed histogram.
func (r *Registry) Hist(name string) *Hist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Hist{name: name}
		r.hists[name] = h
	}
	return h
}

// Series returns (creating if needed) the named cycle-windowed time
// series. The window of an existing series is not changed.
func (r *Registry) Series(name string, window sim.Cycle) *Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		s = NewSeries(name, window)
		r.series[name] = s
	}
	return s
}

// WriteProm writes a Prometheus-style text snapshot: one
// "name value" line per metric, with hierarchy dots mapped to
// underscores and histogram quantiles rendered as labels.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fns := sortedKeys(r.gaugeFns)
	hists := sortedKeys(r.hists)
	series := sortedKeys(r.series)
	r.mu.Unlock()

	for _, name := range fns {
		r.mu.Lock()
		f := r.gaugeFns[name]
		r.mu.Unlock()
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", promName(name), promName(name), f()); err != nil {
			return err
		}
	}
	for _, name := range hists {
		h := r.Hist(name)
		b := h.snapshot()
		p := promName(name)
		if _, err := fmt.Fprintf(w,
			"# TYPE %s summary\n%s{quantile=\"0.5\"} %g\n%s{quantile=\"0.9\"} %g\n%s{quantile=\"0.99\"} %g\n%s_max %g\n%s_sum %g\n%s_count %d\n",
			p, p, b.Quantile(0.5), p, b.Quantile(0.9), p, b.Quantile(0.99),
			p, b.Max(), p, b.Sum(), p, b.Count()); err != nil {
			return err
		}
	}
	for _, name := range series {
		r.mu.Lock()
		s := r.series[name]
		r.mu.Unlock()
		if err := s.writeProm(w); err != nil {
			return err
		}
	}
	return nil
}

// promName maps a registry name to a valid Prometheus metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*, per the text exposition format): hierarchy
// dots, dashes and every other invalid byte become '_', and a name
// starting with a digit gets a '_' prefix. Names that are already
// valid pass through unchanged (and unallocated).
func promName(name string) string {
	clean := name != "" && !promDigit(name[0])
	for i := 0; clean && i < len(name); i++ {
		clean = promChar(name[i])
	}
	if clean {
		return name
	}
	var b strings.Builder
	b.Grow(len(name) + 1)
	if name == "" || promDigit(name[0]) {
		b.WriteByte('_')
	}
	for i := 0; i < len(name); i++ {
		if promChar(name[i]) {
			b.WriteByte(name[i])
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promChar reports whether c may appear in a Prometheus metric name.
func promChar(c byte) bool {
	return c == '_' || c == ':' || promDigit(c) ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func promDigit(c byte) bool { return '0' <= c && c <= '9' }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
