package workload

import "netcrafter/internal/sim"

// This file holds the reusable building blocks the workload generators
// are composed from. Each models one archetypal wavefront behaviour
// after hardware coalescing of the 64 threads:
//
//   - streamProgram: threads read/write consecutive elements — the
//     coalescer produces a handful of fully used lines (adjacent /
//     partitioned patterns).
//   - gatherProgram: threads read with a large stride (e.g. a matrix
//     column) — many distinct lines, few bytes each.
//   - randomProgram: threads hit arbitrary lines — many distinct
//     lines, 4–8 bytes each (random pattern).
//   - scatterProgram: strided writes.
//
// All programs are deterministic given their Rand.

// stepAccess is an Instr plus bookkeeping shared by the helpers.
func access(addr uint64, bytes int, write bool) LineAccess {
	return LineAccess{VAddr: addr, Bytes: bytes, Write: write}
}

// streamProgram models threads marching linearly through a region
// slice: each instruction touches `linesPerInstr` consecutive fully
// used lines (64 threads x 4B = 4 lines when elemBytes is 4).
type streamProgram struct {
	r        Region
	pos      uint64 // byte offset into the region
	span     uint64 // slice size in bytes (wraps within it)
	base     uint64 // slice start offset
	lines    int
	write    bool
	steps    int
	compute  int
	produced int
	buf      []LineAccess // the Accesses of every Next (see Program)
}

func newStream(r Region, sliceStart, sliceBytes uint64, lines, steps, compute int, write bool) *streamProgram {
	sliceStart = sliceStart / LineBytes * LineBytes
	sliceBytes = sliceBytes / LineBytes * LineBytes
	if sliceBytes < LineBytes {
		sliceBytes = LineBytes
	}
	if sliceStart+sliceBytes > r.Bytes {
		sliceStart = 0
	}
	return &streamProgram{
		r: r, base: sliceStart, span: sliceBytes,
		lines: lines, steps: steps, compute: compute, write: write,
		buf: make([]LineAccess, 0, lines),
	}
}

func (p *streamProgram) Next() (Instr, bool) {
	if p.produced >= p.steps {
		return Instr{}, false
	}
	p.produced++
	p.buf = p.buf[:0]
	for i := 0; i < p.lines; i++ {
		off := p.base + (p.pos % p.span)
		p.buf = append(p.buf, access(p.r.Base+off, LineBytes, p.write))
		p.pos += LineBytes
	}
	return Instr{Accesses: p.buf, ComputeCycles: p.compute}, true
}

// gatherProgram models a strided (column) access: each instruction is
// 64 threads reading elemBytes at stride rowBytes — `lines` distinct
// lines with only elemBytes needed from each. Successive instructions
// sweep consecutive columns of the same row block, so the same lines
// are revisited at adjacent byte offsets — the spatial locality whose
// interaction with sectoring Figs 16/17 measure. After one full line
// width of columns the program advances to the next row block.
type gatherProgram struct {
	r         Region
	rowBytes  uint64
	elemBytes int
	col       uint64
	rowBlock  uint64
	lines     int
	steps     int
	compute   int
	produced  int
	write     bool
	sweep     bool
	buf       []LineAccess // the Accesses of every Next (see Program)
}

// newGather builds a strided access stream. With sweep set, successive
// instructions revisit the same row block's lines column by column;
// without it, each instruction moves to a fresh row block (every line
// touched once).
func newGather(r Region, rowBytes uint64, elemBytes, lines, steps, compute int, write, sweep bool) *gatherProgram {
	return &gatherProgram{
		r: r, rowBytes: rowBytes, elemBytes: elemBytes,
		lines: lines, steps: steps, compute: compute, write: write, sweep: sweep,
		buf: make([]LineAccess, 0, lines),
	}
}

func (p *gatherProgram) Next() (Instr, bool) {
	if p.produced >= p.steps {
		return Instr{}, false
	}
	p.produced++
	p.buf = p.buf[:0]
	for i := 0; i < p.lines; i++ {
		row := p.rowBlock*uint64(p.lines) + uint64(i)
		off := (row*p.rowBytes + p.col*uint64(p.elemBytes)) % p.r.Bytes
		off = off / uint64(p.elemBytes) * uint64(p.elemBytes) // keep element alignment after wrap
		p.buf = append(p.buf, access(p.r.Base+off, p.elemBytes, p.write))
	}
	in := Instr{Accesses: p.buf, ComputeCycles: p.compute}
	if !p.sweep {
		p.rowBlock++
		return in, true
	}
	p.col++
	if p.col >= uint64(LineBytes/p.elemBytes) {
		p.col = 0
		p.rowBlock++
	}
	return in, true
}

// randomProgram models irregular accesses: each instruction touches
// `lines` pseudo-random lines needing elemBytes each within an optional
// sub-slice of the region. With write set the accesses are stores
// (sparse scatter updates, GUPS/PR-like).
type randomProgram struct {
	r          Region
	rng        *sim.Rand
	elemBytes  int
	lines      int
	steps      int
	compute    int
	write      bool
	produced   int
	base, span uint64       // restriction to [base, base+span) of the region
	buf        []LineAccess // the Accesses of every Next (see Program)
}

func newRandom(r Region, rng *sim.Rand, elemBytes, lines, steps, compute int, write bool) *randomProgram {
	return newRandomSlice(r, rng, elemBytes, lines, steps, compute, write, 0, r.Bytes)
}

// newRandomSlice is newRandom restricted to a byte range of the region
// (used for hot working sets and per-CTA local randoms).
func newRandomSlice(r Region, rng *sim.Rand, elemBytes, lines, steps, compute int, write bool, base, span uint64) *randomProgram {
	base = base / LineBytes * LineBytes
	span = span / LineBytes * LineBytes
	if span < LineBytes {
		span = LineBytes
	}
	if base+span > r.Bytes {
		base = 0
	}
	return &randomProgram{
		r: r, rng: rng, elemBytes: elemBytes, lines: lines,
		steps: steps, compute: compute, write: write, base: base, span: span,
		buf: make([]LineAccess, 0, lines),
	}
}

func (p *randomProgram) Next() (Instr, bool) {
	if p.produced >= p.steps {
		return Instr{}, false
	}
	p.produced++
	p.buf = p.buf[:0]
	nLines := p.span / LineBytes
	for i := 0; i < p.lines; i++ {
		line := p.rng.Uint64n(nLines)
		slots := uint64(LineBytes / p.elemBytes)
		if slots == 0 {
			slots = 1
		}
		slot := p.rng.Uint64n(slots)
		addr := p.r.Base + p.base + line*LineBytes + slot*uint64(p.elemBytes)
		p.buf = append(p.buf, access(addr, p.elemBytes, p.write))
	}
	return Instr{Accesses: p.buf, ComputeCycles: p.compute}, true
}

// scatterProgram models strided writes (e.g. transposed output): each
// instruction writes elemBytes into `lines` distinct strided lines.
type scatterProgram struct {
	g gatherProgram
}

func newScatter(r Region, rowBytes uint64, elemBytes, lines, steps, compute int) *scatterProgram {
	return &scatterProgram{g: gatherProgram{
		r: r, rowBytes: rowBytes, elemBytes: elemBytes,
		lines: lines, steps: steps, compute: compute, write: true, sweep: true,
		buf: make([]LineAccess, 0, lines),
	}}
}

func (p *scatterProgram) Next() (Instr, bool) { return p.g.Next() }

// seqProgram chains programs: phases of a kernel (e.g. read inputs,
// then write outputs; or DNN forward then backward).
type seqProgram struct {
	progs []Program
	idx   int
}

func chain(progs ...Program) Program { return &seqProgram{progs: progs} }

func (p *seqProgram) Next() (Instr, bool) {
	for p.idx < len(p.progs) {
		in, ok := p.progs[p.idx].Next()
		if ok {
			return in, true
		}
		p.idx++
	}
	return Instr{}, false
}

// zipProgram interleaves programs instruction-by-instruction (e.g.
// SPMV's index stream + vector gathers happening together).
type zipProgram struct {
	progs []Program
	live  []bool
	n     int
	turn  int
}

func interleave(progs ...Program) Program {
	z := &zipProgram{progs: progs, live: make([]bool, len(progs)), n: len(progs)}
	for i := range z.live {
		z.live[i] = true
	}
	return z
}

func (p *zipProgram) Next() (Instr, bool) {
	for tries := 0; tries < len(p.progs); tries++ {
		i := p.turn % len(p.progs)
		p.turn++
		if !p.live[i] {
			continue
		}
		in, ok := p.progs[i].Next()
		if ok {
			return in, true
		}
		p.live[i] = false
		p.n--
	}
	return Instr{}, false
}

// sliceOf computes the CTA's block of a partitioned region: region
// bytes divided evenly over total CTAs, line-aligned.
func sliceOf(r Region, cta, totalCTAs int) (start, bytes uint64) {
	per := r.Bytes / uint64(totalCTAs) / LineBytes * LineBytes
	if per < LineBytes {
		per = LineBytes
	}
	start = (uint64(cta) * per) % r.Bytes
	return start, per
}
