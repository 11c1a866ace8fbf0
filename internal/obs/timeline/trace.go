package timeline

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// WriteTrace exports the timeline as Chrome Trace Event JSON, loadable
// in Perfetto or chrome://tracing. One simulated cycle renders as one
// microsecond. The export maps:
//
//   - execute-slice tracks → one thread per component, "X" complete
//     events covering each busy interval;
//   - windowed tracks → "C" counter events (one sample per window,
//     with a normalized "util" value when the track has a capacity);
//   - dwell tracks → "b"/"e" async span pairs keyed by transaction
//     ID, so selecting an id shows the request's whole journey.
//
// Call Finish before exporting so open slices and partial windows are
// included. A nil timeline writes an empty (but valid) trace.
func (tl *Timeline) WriteTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteString(",\n")
		} else {
			bw.WriteString("\n")
		}
		first = false
		bw.WriteString(s)
	}
	emit(`{"ph":"M","pid":1,"name":"process_name","args":{"name":"netcrafter"}}`)
	if tl != nil {
		for _, t := range tl.tracks {
			if t.kind == kindSlice {
				emit(fmt.Sprintf(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
					t.id+1, strconv.Quote(t.name)))
				emit(fmt.Sprintf(`{"ph":"M","pid":1,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`,
					t.id+1, t.id))
			}
		}
		for _, ev := range tl.ordered() {
			t := tl.tracks[ev.Track]
			switch t.kind {
			case kindSlice:
				emit(fmt.Sprintf(`{"ph":"X","pid":1,"tid":%d,"cat":"exec","name":%s,"ts":%d,"dur":%d}`,
					t.id+1, strconv.Quote(t.name), ev.Start, ev.Dur))
			case kindWindow:
				if t.capacity > 0 {
					emit(fmt.Sprintf(`{"ph":"C","pid":1,"name":%s,"ts":%d,"args":{"value":%s,"util":%s}}`,
						strconv.Quote(t.name), ev.Start,
						jsonFloat(ev.Value), jsonFloat(ev.Value/t.capacity)))
				} else {
					emit(fmt.Sprintf(`{"ph":"C","pid":1,"name":%s,"ts":%d,"args":{"value":%s}}`,
						strconv.Quote(t.name), ev.Start, jsonFloat(ev.Value)))
				}
			case kindDwell:
				id := strconv.FormatUint(ev.ID, 16)
				emit(fmt.Sprintf(`{"ph":"b","pid":1,"tid":1,"cat":"txn","id":"0x%s","name":%s,"ts":%d}`,
					id, strconv.Quote(t.name), ev.Start))
				emit(fmt.Sprintf(`{"ph":"e","pid":1,"tid":1,"cat":"txn","id":"0x%s","name":%s,"ts":%d}`,
					id, strconv.Quote(t.name), ev.Start+ev.Dur))
			}
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// jsonFloat renders a float compactly and JSON-safely (no NaN/Inf in
// the simulator's inputs, but guard anyway).
func jsonFloat(v float64) string {
	if v != v || v > 1e308 || v < -1e308 {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
