package cluster

import (
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"netcrafter/internal/core"
	"netcrafter/internal/gpu"
	"netcrafter/internal/obs/timeline"
	"netcrafter/internal/sim"
	"netcrafter/internal/vm"
	"netcrafter/internal/workload"
)

const testLimit = sim.Cycle(30_000_000)

// mustBuild builds cfg's system, failing the test on a build error.
func mustBuild(t *testing.T, cfg Config) *System {
	t.Helper()
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func tinyRun(t *testing.T, cfg Config, name string) *Result {
	t.Helper()
	r, err := RunOne(cfg, name, workload.Tiny(), testLimit)
	if err != nil {
		t.Fatalf("%s under %+v: %v", name, cfg.NetCrafter, err)
	}
	return r
}

func TestBaselineRunsGUPS(t *testing.T) {
	r := tinyRun(t, Baseline(), "GUPS")
	if r.Cycles <= 0 {
		t.Fatal("no cycles elapsed")
	}
	if r.Instructions == 0 || r.L1Accesses == 0 {
		t.Fatal("no work executed")
	}
	if r.RemoteReads == 0 {
		t.Fatal("GUPS generated no remote reads; placement broken")
	}
	if r.Net.FlitsTotal.Value() == 0 {
		t.Fatal("no inter-cluster flits observed")
	}
	if r.BytesNeeded.Total() == 0 {
		t.Fatal("Fig-7 histogram empty")
	}
}

// TestDeterministicCycles runs one tiny cell on two fresh systems. A
// Result holds simulated outputs only, so the two must be DeepEqual:
// no host-time field may differ between them.
func TestDeterministicCycles(t *testing.T) {
	a := tinyRun(t, Baseline(), "SPMV")
	b := tinyRun(t, Baseline(), "SPMV")
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", *a, *b)
	}
}

// loadedScale saturates the 16 GB/s inter-cluster link so bandwidth
// (not latency) dominates, as in the paper's evaluation.
func loadedScale() workload.Scale {
	return workload.Scale{Steps: 16, CTAs: 16, WavesPerCTA: 4, DataKB: 2048, Seed: 1}
}

func loadedRun(t *testing.T, cfg Config, name string) *Result {
	t.Helper()
	r, err := RunOne(cfg, name, loadedScale(), testLimit)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestIdealFasterThanBaseline(t *testing.T) {
	base := loadedRun(t, Baseline(), "GUPS")
	ideal := loadedRun(t, Ideal(), "GUPS")
	if base.InterUtilization < 0.5 {
		t.Fatalf("loaded scale not congesting the link (util %.2f)", base.InterUtilization)
	}
	if spd := float64(base.Cycles) / float64(ideal.Cycles); spd < 1.2 {
		t.Fatalf("ideal speedup %.2f, want the Fig-3 bottleneck gap (>1.2)", spd)
	}
}

func TestNetCrafterReducesInterClusterTraffic(t *testing.T) {
	base := loadedRun(t, Baseline(), "GUPS")
	nc := loadedRun(t, WithNetCrafter(), "GUPS")
	if nc.Net.WireBytes.Value() >= base.Net.WireBytes.Value() {
		t.Fatalf("NetCrafter wire bytes %d >= baseline %d",
			nc.Net.WireBytes.Value(), base.Net.WireBytes.Value())
	}
	if nc.Net.PacketsTrimmed.Value() == 0 {
		t.Fatal("trimming never fired on GUPS")
	}
	if nc.Net.FlitsStitched.Value() == 0 {
		t.Fatal("stitching never fired on GUPS")
	}
	if nc.Cycles > base.Cycles {
		t.Fatalf("NetCrafter slower than baseline on GUPS: %d vs %d", nc.Cycles, base.Cycles)
	}
}

func TestAllWorkloadsCompleteOnBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	sc := workload.Tiny()
	sc.CTAs = 4
	sc.Steps = 4
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			r, err := RunOne(Baseline(), name, sc, testLimit)
			if err != nil {
				t.Fatal(err)
			}
			if r.Instructions == 0 {
				t.Fatal("no instructions")
			}
		})
	}
}

func TestPTWTrafficExists(t *testing.T) {
	r := tinyRun(t, Baseline(), "GUPS")
	ptw := r.Net.PTWFlits.Value()
	if ptw == 0 {
		t.Fatal("no PTW flits crossed clusters; remote PTE path dead")
	}
	share := r.Net.PTWShare()
	if share <= 0 || share >= 0.9 {
		t.Fatalf("PTW share %.2f implausible", share)
	}
}

func TestSectorModeRaisesMPKIOnGather(t *testing.T) {
	// MT's column sweeps revisit lines at adjacent offsets; fetching
	// 16B sectors everywhere must raise its L1 MPKI versus the
	// full-line baseline (Fig 16), while NetCrafter's trim-only-
	// inter-cluster policy must stay at or below the sector cache.
	base := tinyRun(t, Baseline(), "MT")
	secCfg := Baseline()
	secCfg.GPU.FetchMode = gpu.FetchSector
	sector := tinyRun(t, secCfg, "MT")
	nc := tinyRun(t, WithNetCrafter(), "MT")
	if sector.L1MPKI() <= base.L1MPKI() {
		t.Fatalf("sector MPKI %.2f <= full-line MPKI %.2f", sector.L1MPKI(), base.L1MPKI())
	}
	if nc.L1MPKI() > sector.L1MPKI() {
		t.Fatalf("NetCrafter trim MPKI %.2f exceeds all-sector MPKI %.2f", nc.L1MPKI(), sector.L1MPKI())
	}
}

func TestPTECoLocationInvariant(t *testing.T) {
	sys := mustBuild(t, Baseline())
	spec, err := workload.ByName("GUPS", workload.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	sys.Load(spec)
	topo := graphTopology{}
	for _, reg := range spec.Regions {
		baseVPN := vm.VPN(reg.Base)
		// The leaf PTE page must live on the GPU of the first data
		// page of each 2MB region.
		firstPA, ok := sys.PT.Translate(reg.Base)
		if !ok {
			t.Fatal("region base unmapped")
		}
		leaf, ok := sys.PT.LeafNodeAddr(baseVPN)
		if !ok {
			t.Fatal("leaf missing")
		}
		if topo.HomeGPU(leaf) != topo.HomeGPU(firstPA) {
			t.Fatalf("region %s: leaf PTE on GPU %d, first page on GPU %d",
				reg.Name, topo.HomeGPU(leaf), topo.HomeGPU(firstPA))
		}
	}
}

func TestFlitConservationEndToEnd(t *testing.T) {
	// Controllers' queues and RDMA reassemblers must fully drain.
	sys := mustBuild(t, WithNetCrafter())
	spec, err := workload.ByName("MT", workload.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunWorkload(spec, testLimit); err != nil {
		t.Fatal(err)
	}
	for _, ctl := range sys.Controllers {
		if ctl.QueuedFlits() != 0 {
			t.Fatalf("%s has %d stranded flits", ctl.Name, ctl.QueuedFlits())
		}
	}
	if !sys.AllIdle() {
		t.Fatal("system not idle after completion")
	}
}

func TestBandwidthHelpers(t *testing.T) {
	if FlitsPerCycle(16, 16) != 1 || FlitsPerCycle(128, 16) != 8 || FlitsPerCycle(8, 16) != 1 {
		t.Fatal("FlitsPerCycle wrong")
	}
	if FlitsPerCycle(16, 8) != 2 {
		t.Fatal("8B flit bandwidth wrong")
	}
}

func TestConfigPresets(t *testing.T) {
	if Ideal().InterGBps != Ideal().IntraGBps {
		t.Fatal("Ideal is not uniform")
	}
	if WithNetCrafter().NetCrafter.Sequencing != core.SeqPTW {
		t.Fatal("WithNetCrafter missing sequencing")
	}
	odd := Config{GPUs: 4, GPUsPerCluster: 3}
	if _, err := Build(odd); err == nil {
		t.Fatal("odd cluster split accepted")
	}
	// RunOne surfaces Build's error instead of panicking.
	if _, err := RunOne(odd, "GUPS", workload.Tiny(), testLimit); err == nil || !strings.Contains(err.Error(), "equal clusters") {
		t.Fatalf("RunOne on an odd cluster split: %v, want the build error", err)
	}
	tinyFlit := WithNetCrafter()
	tinyFlit.GPU.FlitBytes = 4
	if _, err := Build(tinyFlit); err == nil || !strings.Contains(err.Error(), "flit size 4") {
		t.Fatalf("4-byte flits: %v, want an error naming the flit size", err)
	}
}

// TestFourClusterTopology exercises the scaling extension: 8 GPUs in 4
// clusters joined through a central inter-cluster switch.
func TestFourClusterTopology(t *testing.T) {
	cfg := Baseline()
	cfg.GPUs = 8
	cfg.GPUsPerCluster = 2
	sys := mustBuild(t, cfg)
	if sys.NumClusters() != 4 || len(sys.Controllers) != 4 || len(sys.InterLinks) != 4 {
		t.Fatalf("4-cluster wiring wrong: %d clusters, %d controllers, %d links",
			sys.NumClusters(), len(sys.Controllers), len(sys.InterLinks))
	}
	spec, err := workload.ByName("GUPS", workload.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.RunWorkload(spec, testLimit)
	if err != nil {
		t.Fatal(err)
	}
	if r.RemoteReads == 0 || r.Net.FlitsTotal.Value() == 0 {
		t.Fatal("no inter-cluster traffic on 4-cluster system")
	}
	for _, ctl := range sys.Controllers {
		if ctl.QueuedFlits() != 0 {
			t.Fatalf("%s stranded flits", ctl.Name)
		}
	}
}

// TestFourClusterNetCrafterStillHelps checks the mechanisms survive the
// topology generalization.
func TestFourClusterNetCrafterStillHelps(t *testing.T) {
	mk := func(nc bool) Config {
		cfg := Baseline()
		if nc {
			cfg = WithNetCrafter()
		}
		cfg.GPUs = 8
		cfg.GPUsPerCluster = 2
		return cfg
	}
	sc := workload.Tiny()
	sc.CTAs = 16
	base, err := RunOne(mk(false), "GUPS", sc, testLimit)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := RunOne(mk(true), "GUPS", sc, testLimit)
	if err != nil {
		t.Fatal(err)
	}
	if nc.Net.WireBytes.Value() >= base.Net.WireBytes.Value() {
		t.Fatalf("no byte reduction on 4 clusters: %d vs %d",
			nc.Net.WireBytes.Value(), base.Net.WireBytes.Value())
	}
	if nc.Net.PacketsTrimmed.Value() == 0 || nc.Net.FlitsStitched.Value() == 0 {
		t.Fatal("mechanisms inactive on 4 clusters")
	}
}

// TestAuditAfterEveryWorkload runs a few workloads under the full
// NetCrafter design and audits conservation invariants afterwards.
func TestAuditAfterEveryWorkload(t *testing.T) {
	for _, name := range []string{"GUPS", "MT", "LENET"} {
		sys := mustBuild(t, WithNetCrafter())
		spec, err := workload.ByName(name, workload.Tiny())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RunWorkload(spec, testLimit); err != nil {
			t.Fatal(err)
		}
		if err := sys.Audit(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestAuditDetectsImbalance sanity-checks the auditor itself.
func TestAuditDetectsImbalance(t *testing.T) {
	sys := mustBuild(t, Baseline())
	sys.GPUs[0].RDMA.Stats.RemoteReads.Inc() // fake an unserved read
	if err := sys.Audit(); err == nil {
		t.Fatal("audit missed an unserved remote read")
	}
}

// TestTrimWritesEndToEnd runs GUPS (write-heavy sparse updates) with the
// write-mask extension and checks additional byte savings.
func TestTrimWritesEndToEnd(t *testing.T) {
	nc := loadedRun(t, WithNetCrafter(), "GUPS")
	cfg := WithNetCrafter()
	cfg.NetCrafter.TrimWrites = true
	tw := loadedRun(t, cfg, "GUPS")
	if tw.Net.WireBytes.Value() >= nc.Net.WireBytes.Value() {
		t.Fatalf("write trimming saved nothing: %d vs %d",
			tw.Net.WireBytes.Value(), nc.Net.WireBytes.Value())
	}
	if tw.Cycles > nc.Cycles*11/10 {
		t.Fatalf("write trimming slowed GUPS badly: %d vs %d", tw.Cycles, nc.Cycles)
	}
}

// TestTimelineRecordsWireEvents attaches a timeline and checks every
// controller mechanism leaves events on its count tracks, with each
// track's total equal to the run's matching NetStats counter.
func TestTimelineRecordsWireEvents(t *testing.T) {
	sys := mustBuild(t, WithNetCrafter())
	tl := timeline.New(0)
	sys.AttachObs(nil, nil, tl)
	spec, err := workload.ByName("GUPS", workload.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunWorkload(spec, testLimit)
	if err != nil {
		t.Fatal(err)
	}
	tl.Finish(sys.Engine.Now())
	var total [core.NumWireEvents]float64
	for _, ctl := range sys.Controllers {
		for e, tr := range ctl.ObsEvents {
			for _, v := range tr.Windows() {
				total[e] += v
			}
		}
	}
	for e, want := range map[core.WireEvent]int64{
		core.EventEject:  res.Net.FlitsTotal.Value(),
		core.EventStitch: res.Net.ItemsStitched.Value(),
		core.EventTrim:   res.Net.PacketsTrimmed.Value(),
		core.EventPool:   res.Net.PooledFlits.Value(),
	} {
		if want == 0 || total[e] != float64(want) {
			t.Errorf("%s track total %v, want the counter's %d (> 0)", e, total[e], want)
		}
	}
	if total[core.EventUnstitch] == 0 {
		t.Error("no unstitch events recorded")
	}
}

// TestWedgedRunNamesOldestTransaction: a tiny GUPS run whose cycle
// limit is too small to finish fails with an error that counts the live
// transactions and names the oldest one (id, kind, stage, age, origin),
// as the in-flight dump lists them, without any dump being asked for.
func TestWedgedRunNamesOldestTransaction(t *testing.T) {
	sys := mustBuild(t, Baseline())
	spec, err := workload.ByName("GUPS", workload.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.RunWorkload(spec, 2000)
	if err == nil {
		t.Fatal("GUPS finished within 2000 cycles; the limit no longer wedges the run")
	}
	var dump strings.Builder
	sys.DumpInFlight(&dump)
	entry := regexp.MustCompile(`^  #(\d+) (\S+) (\S+) age=(\d+) .* origin=(\S+) depth=`)
	table, want, oldest := "", "", -1
	for _, l := range strings.Split(dump.String(), "\n") {
		if rest, ok := strings.CutPrefix(l, "txn table "); ok {
			table, _, _ = strings.Cut(rest, ":")
		}
		m := entry.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		if age, _ := strconv.Atoi(m[4]); age > oldest {
			oldest = age
			want = fmt.Sprintf("oldest %s #%s %s in %s for %s cycles, origin %s", table, m[1], m[2], m[3], m[4], m[5])
		}
	}
	if oldest < 0 {
		t.Fatalf("wedged run left no transaction in flight:\n%s", dump.String())
	}
	msg := err.Error()
	for _, part := range []string{
		"cycle limit 2000 reached",
		fmt.Sprintf("; %d transactions in flight, ", sys.InFlight()),
		want,
	} {
		if !strings.Contains(msg, part) {
			t.Errorf("run error %q does not contain %q", msg, part)
		}
	}
}
