package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Breakdown aggregates finished spans into a per-packet-type, per-stage
// latency table: for each type, a histogram of end-to-end latency plus
// one histogram per lifecycle stage. It backs the summary table
// netcrafter-sim prints under -spans and bench.BreakdownReport.
type Breakdown struct {
	types map[string]*typeAgg
}

type typeAgg struct {
	total  LogBuckets
	stages [NumStages]LogBuckets
}

// NewBreakdown returns an empty aggregation.
func NewBreakdown() *Breakdown {
	return &Breakdown{types: make(map[string]*typeAgg)}
}

func (b *Breakdown) agg(typ string) *typeAgg {
	a, ok := b.types[typ]
	if !ok {
		a = &typeAgg{}
		b.types[typ] = a
	}
	return a
}

// add folds one finished span in (called with the recorder lock held).
func (b *Breakdown) add(s *Span) {
	a := b.agg(s.Type)
	a.total.Observe(float64(s.Total()))
	for i := Stage(0); i < NumStages; i++ {
		if s.stages[i] != 0 {
			a.stages[i].Observe(float64(s.stages[i]))
		}
	}
}

func (b *Breakdown) clone() *Breakdown {
	out := NewBreakdown()
	for typ, a := range b.types {
		cp := *a
		out.types[typ] = &cp
	}
	return out
}

// Types returns the packet types seen, sorted.
func (b *Breakdown) Types() []string {
	out := make([]string, 0, len(b.types))
	for t := range b.types {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Spans returns the number of spans aggregated for one type.
func (b *Breakdown) Spans(typ string) int64 {
	if a, ok := b.types[typ]; ok {
		return a.total.Count()
	}
	return 0
}

// Total returns the end-to-end latency distribution of one type.
func (b *Breakdown) Total(typ string) LogBuckets {
	if a, ok := b.types[typ]; ok {
		return a.total
	}
	return LogBuckets{}
}

// Stage returns the latency distribution of one stage for one type.
func (b *Breakdown) Stage(typ string, st Stage) LogBuckets {
	if a, ok := b.types[typ]; ok {
		return a.stages[st]
	}
	return LogBuckets{}
}

// Table renders the mean/p99 per-stage latency table. Stage cells read
// "mean/p99" in cycles over the spans of that type that crossed the
// stage; e2e is the end-to-end distribution.
func (b *Breakdown) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-9s %9s %17s", "type", "spans", "e2e(mean/p99)")
	for st := Stage(0); st < NumStages; st++ {
		fmt.Fprintf(&sb, " %13s", st.String())
	}
	sb.WriteByte('\n')
	for _, typ := range b.Types() {
		a := b.types[typ]
		fmt.Fprintf(&sb, "%-9s %9d %17s", typ, a.total.Count(),
			cell(&a.total))
		for st := Stage(0); st < NumStages; st++ {
			fmt.Fprintf(&sb, " %13s", cell(&a.stages[st]))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func cell(lb *LogBuckets) string {
	if lb.Count() == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f/%.0f", lb.Mean(), lb.Quantile(0.99))
}
