package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file provides machine-readable report export so regenerated
// figures can be plotted or diffed outside the simulator.

// UnmarshalJSON implements json.Unmarshaler: a report decodes by its
// field tags, and a row whose value count differs from the column
// count is rejected.
func (r *Report) UnmarshalJSON(data []byte) error {
	type plain Report // the same fields without this method
	var p plain
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	for _, row := range p.Rows {
		if len(row.Values) != len(p.Columns) {
			return fmt.Errorf("bench: row %q has %d values for %d columns", row.Label, len(row.Values), len(p.Columns))
		}
	}
	*r = Report(p)
	return nil
}

// WriteJSON writes the report as one JSON object.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV writes the report as a CSV table with a header row.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"label"}, r.Columns...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := make([]string, 0, len(row.Values)+1)
		rec = append(rec, row.Label)
		for _, v := range row.Values {
			rec = append(rec, strconv.FormatFloat(v, 'g', 8, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteChart renders the report as horizontal ASCII bars, one block per
// column, scaled to the column's maximum — quick terminal-side
// eyeballing of figure shapes.
func (r *Report) WriteChart(w io.Writer) error {
	const width = 40
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	for ci, col := range r.Columns {
		max := 0.0
		for _, row := range r.Rows {
			if row.Values[ci] > max {
				max = row.Values[ci]
			}
		}
		fmt.Fprintf(w, "\n[%s] (max %.3f)\n", col, max)
		for _, row := range r.Rows {
			n := 0
			if max > 0 {
				n = int(row.Values[ci] / max * width)
			}
			bar := strings.Repeat("#", n)
			fmt.Fprintf(w, "  %-10s %8.3f |%s\n", row.Label, row.Values[ci], bar)
		}
	}
	if r.Notes != "" {
		fmt.Fprintf(w, "\npaper shape: %s\n", r.Notes)
	}
	return nil
}
