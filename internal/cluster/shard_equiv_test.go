package cluster

import (
	"reflect"
	"testing"

	"netcrafter/internal/comm"
	"netcrafter/internal/obs/timeline"
	"netcrafter/internal/topo"
	"netcrafter/internal/workload"
)

// The sharded-engine equivalence pin (DESIGN.md section 2.15): a
// partitioned run must reproduce the serial run's Result bit for bit —
// same cycles, same statistics, same histograms — on every
// multi-cluster preset. Partitioning is a host-side optimization; any
// divergence is a correctness bug, not drift. Run under -race (make
// shard-smoke / make ci) this doubles as the coordinator's data-race
// check.

// shardPresets are the multi-cluster topology presets; every one has
// boundary links for the partitioner to cut.
var shardPresets = []string{
	"frontier-4x2", "frontier-8x2", "frontier-8x4",
	"ring-8x4", "fc-8x4", "asym-4x2", "uniform-4x2",
}

func runSharded(t *testing.T, preset string, shards int) (*Result, *System) {
	t.Helper()
	g, err := topo.Preset(preset)
	if err != nil {
		t.Fatal(err)
	}
	cfg := WithNetCrafter().WithTopology(g)
	cfg.Shards = shards
	spec, err := workload.ByName("GUPS", workload.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	sys := mustBuild(t, cfg)
	res, err := sys.RunWorkload(spec, 50_000_000)
	if err != nil {
		t.Fatalf("%s shards=%d: %v", preset, shards, err)
	}
	return res, sys
}

// TestShardEquivalence runs every multi-cluster preset serial and at 4
// shards and requires byte-identical reports.
func TestShardEquivalence(t *testing.T) {
	for _, preset := range shardPresets {
		t.Run(preset, func(t *testing.T) {
			serial, _ := runSharded(t, preset, 1)
			sharded, sys := runSharded(t, preset, 4)
			if sys.Shards() < 2 {
				t.Fatalf("%s: expected a partitioned system, got %d shard(s)", preset, sys.Shards())
			}
			if !reflect.DeepEqual(serial, sharded) {
				t.Errorf("%s: 4-shard result differs from serial:\nserial:  %+v\nsharded: %+v",
					preset, *serial, *sharded)
			}
		})
	}
}

// TestShardBoundaryConservation is the flit-conservation property:
// every boundary direction must deliver into its destination shard
// exactly the flits and bytes the source shard handed over — nothing
// lost, duplicated or still parked at drain.
func TestShardBoundaryConservation(t *testing.T) {
	for _, preset := range shardPresets {
		t.Run(preset, func(t *testing.T) {
			_, sys := runSharded(t, preset, 4)
			flows := sys.BoundaryFlows()
			if len(flows) == 0 {
				t.Fatalf("%s: partitioned system reports no boundary flows", preset)
			}
			var moved int64
			for _, f := range flows {
				if f.FlitsOut != f.FlitsIn {
					t.Errorf("%s %s: %d flits staged out, %d delivered", preset, f.Name, f.FlitsOut, f.FlitsIn)
				}
				if f.BytesOut != f.BytesIn {
					t.Errorf("%s %s: %d bytes staged out, %d delivered", preset, f.Name, f.BytesOut, f.BytesIn)
				}
				moved += f.FlitsIn
			}
			if moved == 0 {
				t.Errorf("%s: no boundary traffic at all — the equivalence check exercised nothing", preset)
			}
		})
	}
}

// TestShardSerialHasNoBoundaries pins the serial path: no coordinator,
// one engine, no boundary flows.
func TestShardSerialHasNoBoundaries(t *testing.T) {
	_, sys := runSharded(t, "frontier-4x2", 1)
	if sys.Shards() != 1 {
		t.Fatalf("serial system has %d shards", sys.Shards())
	}
	if flows := sys.BoundaryFlows(); flows != nil {
		t.Fatalf("serial system reports boundary flows: %+v", flows)
	}
}

// TestShardClampsToClusters pins the shard-count clamp: asking for more
// shards than clusters partitions at cluster granularity, and the
// result still matches serial.
func TestShardClampsToClusters(t *testing.T) {
	serial, _ := runSharded(t, "frontier-4x2", 1)
	sharded, sys := runSharded(t, "frontier-4x2", 16)
	if got := sys.Shards(); got != 2 {
		t.Fatalf("16 shards over 2 clusters gave %d shards, want 2", got)
	}
	if !reflect.DeepEqual(serial, sharded) {
		t.Error("clamped shard run differs from serial")
	}
}

// TestShardRefusesObservability pins the loud refusal: shared
// observability sinks require the serial engine.
func TestShardRefusesObservability(t *testing.T) {
	g, err := topo.Preset("frontier-4x2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := WithNetCrafter().WithTopology(g)
	cfg.Shards = 2
	spec, err := workload.ByName("GUPS", workload.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	sys := mustBuild(t, cfg)
	sys.AttachObs(nil, nil, timeline.New(0))
	if _, err := sys.RunWorkload(spec, 50_000_000); err == nil {
		t.Fatal("sharded run with a timeline attached was not refused")
	}

	sys = mustBuild(t, cfg)
	if _, err := runCommByName(sys, "ring-allreduce", comm.Tiny(), 50_000_000); err == nil {
		t.Fatal("sharded comm run was not refused")
	}
}
