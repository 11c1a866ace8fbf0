package bench

import "netcrafter/internal/obs"

// MetricsReport renders a registry snapshot as a one-column Report:
// one row per metric, histograms expanded into count/mean/quantile
// entries, sorted by name.
func MetricsReport(reg *obs.Registry) *Report {
	r := &Report{ID: "metrics", Title: "metrics registry snapshot", Columns: []string{"value"}}
	for _, m := range reg.Snapshot() {
		r.AddRow(m.Name, m.Value)
	}
	return r
}

// BreakdownReport renders a span aggregation as a Report: one row per
// packet type with the span count, end-to-end mean and p99, and the
// mean cycles spent in each lifecycle stage. Stage means are over the
// spans of that type that actually crossed the stage.
func BreakdownReport(b *obs.Breakdown) *Report {
	cols := []string{"spans", "e2e_mean", "e2e_p99"}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		cols = append(cols, st.String())
	}
	r := &Report{ID: "breakdown", Title: "per-stage latency breakdown (cycles)", Columns: cols}
	for _, typ := range b.Types() {
		total := b.Total(typ)
		vals := []float64{float64(b.Spans(typ)), total.Mean(), total.Quantile(0.99)}
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			vals = append(vals, b.Stage(typ, st).Mean())
		}
		r.AddRow(typ, vals...)
	}
	return r
}
