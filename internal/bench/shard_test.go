package bench

import (
	"strings"
	"testing"

	"netcrafter/internal/cluster"
)

// TestExtShardEquivalence runs the equivalence experiment at tiny scale
// and requires every row to certify equal=1: the 2-shard partitioned
// engine must reproduce the serial reports bit for bit.
func TestExtShardEquivalence(t *testing.T) {
	rep, err := Run("ext-shard", tinyOpts("GUPS", "BS"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("ext-shard ran %d rows, want 2 (GUPS, BS)", len(rep.Rows))
	}
	eqCol := len(rep.Columns) - 1
	if rep.Columns[eqCol] != "equal" {
		t.Fatalf("last column is %q, want equal", rep.Columns[eqCol])
	}
	for _, row := range rep.Rows {
		if row.Values[eqCol] != 1 {
			t.Errorf("%s: serial and 2-shard reports differ (equal=%v): %+v", row.Label, row.Values[eqCol], row)
		}
		if row.Values[0] <= 0 || row.Values[0] != row.Values[1] {
			t.Errorf("%s: baseline cycles %v (serial) vs %v (2-shard)", row.Label, row.Values[0], row.Values[1])
		}
		if row.Values[2] <= 0 || row.Values[2] != row.Values[3] {
			t.Errorf("%s: netcrafter cycles %v (serial) vs %v (2-shard)", row.Label, row.Values[2], row.Values[3])
		}
	}
}

// TestOptionsShardsInvariant pins the sweep-level contract: an
// experiment run with Options.Shards set produces the same report as
// the serial run, and the flow backend refuses to shard.
func TestOptionsShardsInvariant(t *testing.T) {
	serial, err := Run("fig3", tinyOpts("GUPS"))
	if err != nil {
		t.Fatal(err)
	}
	opt := tinyOpts("GUPS")
	opt.Shards = 2
	sharded, err := Run("fig3", opt)
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != sharded.String() {
		t.Errorf("fig3 report differs under Options.Shards=2:\n--- serial\n%s\n--- sharded\n%s", serial, sharded)
	}

	opt = tinyOpts("GUPS")
	opt.Shards = 2
	opt.Backend = cluster.BackendFlow
	if _, err := Run("ext-collective", opt); err == nil ||
		!strings.Contains(err.Error(), "Shards=2") || !strings.Contains(err.Error(), `backend "flow" cannot shard`) {
		t.Fatalf("flow backend with Shards=2: %v, want a refusal naming both", err)
	}
}
