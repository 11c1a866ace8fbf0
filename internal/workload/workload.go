// Package workload provides the fifteen GPU applications of Table 3 as
// deterministic memory-access-trace generators. Executing real OpenCL
// kernels is out of scope (and unnecessary for the paper's questions);
// each generator reproduces the properties the evaluation depends on:
// the access-pattern class, the bytes-needed-per-cacheline distribution
// (Fig 7), the read/write mix, and the data-sharing structure that
// determines local vs remote accesses under LASP placement. DNN
// workloads additionally model layer-by-layer data-parallel training
// with weight-gradient synchronization bursts.
package workload

import (
	"sort"

	"netcrafter/internal/names"
	"netcrafter/internal/sim"
)

// LineBytes is the cache line size the coalescer targets.
const LineBytes = 64

// LineAccess is one coalesced access of a wavefront to one cache line.
type LineAccess struct {
	// VAddr is the first byte touched (not necessarily line-aligned).
	VAddr uint64
	// Bytes is how many bytes of the line the wavefront needs; with
	// Offset it drives trim eligibility and Fig 7.
	Bytes int
	Write bool
}

// Instr is one memory instruction of a wavefront after coalescing: the
// set of distinct line accesses it generated plus the compute cycles
// the wavefront spends before its next memory instruction.
type Instr struct {
	Accesses      []LineAccess
	ComputeCycles int
}

// Program generates the instruction stream of one wavefront.
//
// The Accesses slice of the Instr that Next returns is valid until the
// next call to Next: the generators reuse one buffer per program, so a
// caller that keeps accesses longer copies them out first.
type Program interface {
	Next() (Instr, bool)
}

// Placement tells LASP how a data structure should be distributed.
type Placement int

const (
	// PlacePartitioned — block-partitioned across GPUs, aligned with
	// the CTAs that touch each block (LASP's locality case).
	PlacePartitioned Placement = iota
	// PlaceInterleaved — pages round-robined across all GPUs (shared
	// or irregularly accessed structures).
	PlaceInterleaved
)

func (p Placement) String() string {
	if p == PlacePartitioned {
		return "partitioned"
	}
	return "interleaved"
}

// Region is one virtual data structure of a workload.
type Region struct {
	Name      string
	Base      uint64
	Bytes     uint64
	Placement Placement
}

// Pages returns the page count of the region (4KB pages).
func (r Region) Pages() int { return int((r.Bytes + 4095) / 4096) }

// Kernel is one GPU kernel launch.
type Kernel struct {
	Name        string
	CTAs        int
	WavesPerCTA int
	// Partitioned tells the CTA scheduler that CTA i works on slice i
	// of the partitioned regions (co-schedule with data); otherwise
	// CTAs are round-robined.
	Partitioned bool
	// NewProgram builds the instruction stream of one wavefront.
	NewProgram func(cta, wave int, rng *sim.Rand) Program
}

// Spec is a fully instantiated workload.
type Spec struct {
	Name    string
	Pattern string // access-pattern label of Table 3
	Suite   string // benchmark suite of Table 3
	Regions []Region
	Kernels []Kernel
}

// TotalWavefronts returns the number of wavefronts across all kernels.
func (s *Spec) TotalWavefronts() int {
	n := 0
	for _, k := range s.Kernels {
		n += k.CTAs * k.WavesPerCTA
	}
	return n
}

// Scale sizes a workload instance. The paper's full inputs are
// impractical at unit-test speed, so everything derives from these
// knobs; relative behaviour (patterns, sharing, byte distributions) is
// scale-invariant.
type Scale struct {
	// Steps is the number of memory instructions per wavefront.
	Steps int
	// CTAs is the CTA count per kernel.
	CTAs int
	// WavesPerCTA is the wavefront count per CTA.
	WavesPerCTA int
	// DataKB scales data-structure footprints.
	DataKB int
	// Seed makes runs reproducible.
	Seed uint64
}

// Tiny returns a scale for unit tests (seconds of wall time across the
// whole suite).
func Tiny() Scale { return Scale{Steps: 8, CTAs: 8, WavesPerCTA: 2, DataKB: 512, Seed: 1} }

// Small returns the default scale for benchmarks and examples.
func Small() Scale { return Scale{Steps: 24, CTAs: 24, WavesPerCTA: 8, DataKB: 4096, Seed: 1} }

// Medium returns a heavier scale for final figure regeneration.
func Medium() Scale { return Scale{Steps: 48, CTAs: 32, WavesPerCTA: 8, DataKB: 16384, Seed: 1} }

// regionBuilder lays out regions in virtual memory without overlap.
type regionBuilder struct {
	next    uint64
	regions []Region
}

const regionAlign = 2 << 20 // 2MB: keep regions in distinct PTE pages

func newRegionBuilder() *regionBuilder { return &regionBuilder{next: 1 << 32} }

func (b *regionBuilder) add(name string, bytes uint64, p Placement) Region {
	// Round to whole pages: generators assume line-aligned slicing and
	// the placement map works in pages.
	bytes = (bytes + 4095) / 4096 * 4096
	r := Region{Name: name, Base: b.next, Bytes: bytes, Placement: p}
	b.regions = append(b.regions, r)
	b.next += (bytes + regionAlign - 1) / regionAlign * regionAlign
	return r
}

// Names lists the workload names in Table 3 order.
func Names() []string {
	return []string{
		"GUPS", "MT", "MIS", "IM2COL", "ATAX", "BS", "MM2", "MVT",
		"SPMV", "PR", "SR", "SYR2K", "VGG16", "LENET", "RNET18",
	}
}

// ByName instantiates one workload at the given scale. An unknown name
// fails with the sorted list of valid workloads and, for plausible
// typos, a did-you-mean suggestion.
func ByName(name string, sc Scale) (*Spec, error) {
	b, ok := builders[name]
	if !ok {
		known := make([]string, 0, len(builders))
		for k := range builders {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, names.Unknown("workload", name, known)
	}
	return b(sc), nil
}

// All instantiates the complete Table 3 suite.
func All(sc Scale) []*Spec {
	specs := make([]*Spec, 0, len(Names()))
	for _, n := range Names() {
		s, err := ByName(n, sc)
		if err != nil {
			panic(err)
		}
		specs = append(specs, s)
	}
	return specs
}

var builders = map[string]func(Scale) *Spec{}

func register(name string, b func(Scale) *Spec) {
	if _, dup := builders[name]; dup {
		panic("workload: duplicate " + name)
	}
	builders[name] = b
}
