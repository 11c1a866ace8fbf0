package flit

import (
	"fmt"
	"slices"
)

// Pool recycles the flits and packets of one engine shard. A flit
// lives a few hundred cycles and a packet little longer, so a cycle run
// that allocated each one fresh would spend most of its allocation
// volume on them; a pool hands out released ones instead.
//
// Ownership: every flit and packet records the pool that issued it, and
// a pool takes back only what it issued. Traffic crossing a shard
// boundary is released in the receiving shard, whose pool leaves it to
// the collector; otherwise a shard that receives more than it sends
// would grow its free lists with every object that crosses into it, and
// two shards' goroutines would share one free list. A released flit or
// packet must never be touched: the flit and packet operations of this
// package panic on one, as txn panics on a released transaction, and a
// released flit's packet pointer is nil.
//
// Like the shard's scheduler, a pool is single-goroutine state.
type Pool struct {
	flits   []*Flit
	packets []*Packet
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

func (pl *Pool) flit() *Flit {
	n := len(pl.flits)
	if n == 0 {
		return &Flit{pool: pl}
	}
	f := pl.flits[n-1]
	pl.flits[n-1] = nil
	pl.flits = pl.flits[:n-1]
	f.released = false
	return f
}

// NewPacket issues a packet holding v. The pool's bookkeeping in v
// (owner, arrived bytes) is not copied, so a live packet can be
// duplicated with NewPacket(*p).
func (pl *Pool) NewPacket(v Packet) *Packet {
	v.check()
	var p *Packet
	if n := len(pl.packets); n == 0 {
		p = new(Packet)
	} else {
		p = pl.packets[n-1]
		pl.packets[n-1] = nil
		pl.packets = pl.packets[:n-1]
	}
	*p = v
	p.pool, p.arrived = pl, 0
	return p
}

// ReleaseFlit ends f's life: its issuer and stitch-item storage are
// kept, everything else is cleared. f goes back on the free list when
// this pool issued it.
func (pl *Pool) ReleaseFlit(f *Flit) {
	f.check()
	items := f.Stitched
	clear(items)
	*f = Flit{Stitched: items[:0], pool: f.pool, released: true}
	if f.pool == pl {
		pl.flits = append(pl.flits, f)
	}
}

// ReleasePacket ends p's life, keeping only its issuer, and returns it
// to the free list when this pool issued it.
func (pl *Pool) ReleasePacket(p *Packet) {
	p.check()
	*p = Packet{pool: p.pool, released: true}
	if p.pool == pl {
		pl.packets = append(pl.packets, p)
	}
}

// Segment splits a packet into flits of the given size, appending them
// to dst. The first flit carries the header (and as much payload as
// fits); subsequent flits carry payload; the final flit is padded up to
// the slot size.
func (pl *Pool) Segment(dst []*Flit, p *Packet, flitBytes int) []*Flit {
	p.check()
	if flitBytes <= StitchMetaBytes {
		panic(fmt.Sprintf("flit: flit size %d too small", flitBytes))
	}
	remaining := p.RequiredBytes()
	n := p.FlitCount(flitBytes)
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		used := min(remaining, flitBytes)
		remaining -= used
		f := pl.flit()
		f.Pkt, f.Seq, f.Used, f.Last, f.Size = p, i, used, i == n-1, flitBytes
		dst = append(dst, f)
	}
	return dst
}

// Unstitch extracts the stitched items of f as standalone flits (in
// stitch order), appending them to dst, and clears them from f. The
// receiving-side controller uses this before forwarding flits into the
// destination cluster.
func (pl *Pool) Unstitch(dst []*Flit, f *Flit) []*Flit {
	f.check()
	for _, it := range f.Stitched {
		u := pl.flit()
		u.Pkt, u.Seq, u.Used, u.Last, u.Size = it.Pkt, it.Seq, it.Used, it.Last, f.Size
		dst = append(dst, u)
	}
	clear(f.Stitched)
	f.Stitched = f.Stitched[:0]
	return dst
}

// Empty drops the free lists, leaving their objects to the collector;
// the pool stays usable. A run empties its pools before it returns, so
// its peak in-flight population does not stay live with the system.
func (pl *Pool) Empty() { pl.flits, pl.packets = nil, nil }
