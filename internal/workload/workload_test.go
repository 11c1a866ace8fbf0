package workload

import (
	"strings"
	"testing"

	"netcrafter/internal/sim"
)

func TestAllFifteenWorkloadsBuild(t *testing.T) {
	specs := All(Tiny())
	if len(specs) != 15 {
		t.Fatalf("suite has %d workloads, want 15", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate workload %s", s.Name)
		}
		seen[s.Name] = true
		if len(s.Regions) == 0 || len(s.Kernels) == 0 {
			t.Fatalf("%s has no regions or kernels", s.Name)
		}
		if s.TotalWavefronts() == 0 {
			t.Fatalf("%s has no wavefronts", s.Name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("NOPE", Tiny()); err == nil {
		t.Fatal("unknown workload accepted")
	}
	// The error must list every valid name so the user can correct the
	// invocation without consulting the docs.
	_, err := ByName("GUPSS", Tiny())
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	msg := err.Error()
	for _, n := range Names() {
		if !strings.Contains(msg, n) {
			t.Errorf("error %q does not list workload %s", msg, n)
		}
	}
	// A plausible typo also gets a did-you-mean suggestion.
	if !strings.Contains(msg, `did you mean "GUPS"?`) {
		t.Errorf("error %q missing suggestion for GUPSS", msg)
	}
}

func TestRegionsDoNotOverlap(t *testing.T) {
	for _, s := range All(Tiny()) {
		for i, a := range s.Regions {
			for j, b := range s.Regions {
				if i >= j {
					continue
				}
				aEnd, bEnd := a.Base+a.Bytes, b.Base+b.Bytes
				if a.Base < bEnd && b.Base < aEnd {
					t.Fatalf("%s: regions %s and %s overlap", s.Name, a.Name, b.Name)
				}
			}
		}
	}
}

// drain runs a program to completion, returning all accesses.
func drain(t *testing.T, p Program, limit int) []LineAccess {
	t.Helper()
	var all []LineAccess
	for i := 0; ; i++ {
		if i > limit {
			t.Fatalf("program did not terminate within %d instructions", limit)
		}
		in, ok := p.Next()
		if !ok {
			return all
		}
		if len(in.Accesses) == 0 {
			t.Fatal("instruction with no accesses")
		}
		if in.ComputeCycles < 0 {
			t.Fatal("negative compute cycles")
		}
		all = append(all, in.Accesses...)
	}
}

func TestProgramsTerminateAndStayInRegions(t *testing.T) {
	for _, s := range All(Tiny()) {
		regionOf := func(addr uint64) bool {
			for _, r := range s.Regions {
				if addr >= r.Base && addr < r.Base+r.Bytes {
					return true
				}
			}
			return false
		}
		for _, k := range s.Kernels {
			rng := sim.NewRand(99)
			p := k.NewProgram(0, 0, rng)
			for _, a := range drain(t, p, 100000) {
				if !regionOf(a.VAddr) {
					t.Fatalf("%s/%s: access %#x outside all regions", s.Name, k.Name, a.VAddr)
				}
				if !regionOf(a.VAddr + uint64(a.Bytes) - 1) {
					t.Fatalf("%s/%s: access %#x+%d spills out of region", s.Name, k.Name, a.VAddr, a.Bytes)
				}
				if a.Bytes <= 0 || a.Bytes > LineBytes {
					t.Fatalf("%s/%s: access with %d bytes", s.Name, k.Name, a.Bytes)
				}
			}
		}
	}
}

func TestDeterministicPrograms(t *testing.T) {
	for _, name := range []string{"GUPS", "SPMV", "VGG16"} {
		s1, _ := ByName(name, Tiny())
		s2, _ := ByName(name, Tiny())
		p1 := s1.Kernels[0].NewProgram(1, 1, sim.NewRand(7))
		p2 := s2.Kernels[0].NewProgram(1, 1, sim.NewRand(7))
		for {
			a, okA := p1.Next()
			b, okB := p2.Next()
			if okA != okB {
				t.Fatalf("%s: length mismatch", name)
			}
			if !okA {
				break
			}
			if len(a.Accesses) != len(b.Accesses) {
				t.Fatalf("%s: access count diverged", name)
			}
			for i := range a.Accesses {
				if a.Accesses[i] != b.Accesses[i] {
					t.Fatalf("%s: access %d diverged", name, i)
				}
			}
		}
	}
}

// bytesNeededShare returns the fraction of read accesses needing at
// most 16 bytes, approximating the Fig-7 characterization upstream of
// the coalescer.
func bytesNeededShare(t *testing.T, s *Spec) (le16 float64) {
	reads, small := 0, 0
	for _, k := range s.Kernels {
		p := k.NewProgram(0, 0, sim.NewRand(3))
		for _, a := range drain(t, p, 100000) {
			if a.Write {
				continue
			}
			reads++
			if a.Bytes <= 16 {
				small++
			}
		}
	}
	if reads == 0 {
		t.Fatalf("%s generated no reads", s.Name)
	}
	return float64(small) / float64(reads)
}

// TestFig7Shape: random/gather workloads need mostly <=16B per line;
// adjacent/partitioned ones use full lines (Fig 7 of the paper).
func TestFig7Shape(t *testing.T) {
	sc := Tiny()
	for name, wantSmall := range map[string]bool{
		"GUPS": true, "SPMV": true, "MT": true, "MIS": true,
		"IM2COL": false, "BS": false, "SYR2K": false,
	} {
		s, err := ByName(name, sc)
		if err != nil {
			t.Fatal(err)
		}
		share := bytesNeededShare(t, s)
		if wantSmall && share < 0.5 {
			t.Errorf("%s: only %.0f%% of reads need <=16B; expected a trimming-friendly majority", name, share*100)
		}
		if !wantSmall && share > 0.5 {
			t.Errorf("%s: %.0f%% of reads need <=16B; expected full-line usage", name, share*100)
		}
	}
}

func TestPatternLabelsMatchTable3(t *testing.T) {
	want := map[string]string{
		"GUPS": "Random", "MT": "Gather", "MIS": "Random",
		"IM2COL": "Adjacent", "ATAX": "Scatter", "BS": "Partitioned",
		"MM2": "Gather", "MVT": "Scatter,Gather", "SPMV": "Random",
		"PR": "Random", "SR": "Gather", "SYR2K": "Adjacent",
		"VGG16": "-", "LENET": "-", "RNET18": "-",
	}
	for _, s := range All(Tiny()) {
		if s.Pattern != want[s.Name] {
			t.Errorf("%s pattern = %q want %q", s.Name, s.Pattern, want[s.Name])
		}
	}
}

func TestDNNHasForwardAndBackwardKernels(t *testing.T) {
	s, err := ByName("VGG16", Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Kernels) != 12 { // 6 layers x fwd+bwd
		t.Fatalf("VGG16 has %d kernels, want 12", len(s.Kernels))
	}
	fwd, bwd := 0, 0
	for _, k := range s.Kernels {
		switch k.Name[len(k.Name)-3:] {
		case "fwd":
			fwd++
		case "bwd":
			bwd++
		}
	}
	if fwd != 6 || bwd != 6 {
		t.Fatalf("fwd=%d bwd=%d", fwd, bwd)
	}
}

func TestScalePresetsOrdered(t *testing.T) {
	if Tiny().Steps >= Small().Steps || Small().Steps >= Medium().Steps {
		t.Fatal("scale presets not increasing")
	}
}

func TestSliceOf(t *testing.T) {
	r := Region{Base: 0, Bytes: 64 * 100}
	s0, b0 := sliceOf(r, 0, 10)
	s1, _ := sliceOf(r, 1, 10)
	if b0 != 640 || s0 != 0 || s1 != 640 {
		t.Fatalf("sliceOf: s0=%d b0=%d s1=%d", s0, b0, s1)
	}
	// Degenerate: more CTAs than lines still yields a valid slice.
	s, b := sliceOf(Region{Bytes: 64}, 5, 100)
	if b < LineBytes || s >= 64 {
		t.Fatalf("degenerate slice s=%d b=%d", s, b)
	}
}

func TestInterleaveAndChain(t *testing.T) {
	r := Region{Base: 0, Bytes: 1 << 20}
	a := newStream(r, 0, 1024, 1, 3, 1, false)
	b := newStream(r, 2048, 1024, 1, 2, 1, true)
	var seq []bool
	p := interleave(a, b)
	for {
		in, ok := p.Next()
		if !ok {
			break
		}
		seq = append(seq, in.Accesses[0].Write)
	}
	if len(seq) != 5 {
		t.Fatalf("interleave produced %d instrs, want 5", len(seq))
	}
	if !seq[1] || seq[0] {
		t.Fatalf("interleave order wrong: %v", seq)
	}
	c := chain(newStream(r, 0, 1024, 1, 2, 1, false), newStream(r, 0, 1024, 1, 2, 1, true))
	n := 0
	for {
		if _, ok := c.Next(); !ok {
			break
		}
		n++
	}
	if n != 4 {
		t.Fatalf("chain produced %d, want 4", n)
	}
}

// TestAccessesNeverCrossLines: the coalescer contract — every generated
// access stays within one 64-byte cache line (cross-line spans are
// unfillable in the sectored L1).
func TestAccessesNeverCrossLines(t *testing.T) {
	for _, s := range All(Tiny()) {
		for ki, k := range s.Kernels {
			for cta := 0; cta < k.CTAs; cta += k.CTAs/3 + 1 {
				p := k.NewProgram(cta, 0, sim.NewRand(uint64(ki*100+cta)))
				for _, a := range drain(t, p, 100000) {
					if a.VAddr%LineBytes+uint64(a.Bytes) > LineBytes {
						t.Fatalf("%s/%s cta%d: access %#x+%d crosses a line",
							s.Name, k.Name, cta, a.VAddr, a.Bytes)
					}
				}
			}
		}
	}
}

// TestProgramNextNoAllocs pins the generators' reused access buffer:
// past its first instruction, no Table-3 program at Small allocates in
// Next, whichever phase or interleaved stream produces the instruction.
func TestProgramNextNoAllocs(t *testing.T) {
	for _, s := range All(Small()) {
		for ki, k := range s.Kernels {
			n := 0
			for p := k.NewProgram(0, 0, sim.NewRand(5)); ; n++ {
				if _, ok := p.Next(); !ok {
					break
				}
			}
			if n < 3 {
				t.Fatalf("%s/%s: only %d instructions", s.Name, k.Name, n)
			}
			p := k.NewProgram(0, 0, sim.NewRand(5))
			p.Next()
			// AllocsPerRun adds one warm-up call: n-2 runs end on the
			// program's last instruction.
			allocs := testing.AllocsPerRun(n-2, func() {
				if _, ok := p.Next(); !ok {
					t.Fatalf("%s kernel %d ran out of instructions", s.Name, ki)
				}
			})
			if allocs != 0 {
				t.Errorf("%s/%s: Next allocated %.2f times per instruction, want 0", s.Name, k.Name, allocs)
			}
		}
	}
}
