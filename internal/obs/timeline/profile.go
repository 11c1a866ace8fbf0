package timeline

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"netcrafter/internal/sim"
)

// WriteProfile renders an engine self-profile (sim.Engine.Profile) as a
// terminal table: host time per component, its share of the total,
// ticks received and the fraction that reported progress. Rows arrive
// already sorted by host time; an empty profile writes a note
// (profiling not enabled).
func WriteProfile(w io.Writer, costs []sim.ComponentCost) error {
	bw := bufio.NewWriter(w)
	if len(costs) == 0 {
		fmt.Fprintln(bw, "component profile: empty (engine profiling not enabled)")
		return bw.Flush()
	}
	var total time.Duration
	var ticks int64
	nameW := len("component")
	for _, c := range costs {
		total += c.Host
		ticks += c.Ticks
		if len(c.Name) > nameW {
			nameW = len(c.Name)
		}
	}
	fmt.Fprintf(bw, "component profile: %d components, %s host time, %d ticks\n",
		len(costs), hostDuration(total), ticks)
	fmt.Fprintf(bw, "  %-*s %10s %7s %12s %7s %12s\n",
		nameW, "component", "host", "share", "ticks", "busy", "host/tick")
	for _, c := range costs {
		share := 0.0
		if total > 0 {
			share = float64(c.Host) / float64(total)
		}
		busyPct := 0.0
		if c.Ticks > 0 {
			busyPct = float64(c.Busy) / float64(c.Ticks)
		}
		perTick := time.Duration(0)
		if c.Ticks > 0 {
			perTick = c.Host / time.Duration(c.Ticks)
		}
		fmt.Fprintf(bw, "  %-*s %10s %6.1f%% %12d %6.1f%% %12s\n",
			nameW, c.Name, hostDuration(c.Host), 100*share, c.Ticks, 100*busyPct, perTick.String())
	}
	return bw.Flush()
}
