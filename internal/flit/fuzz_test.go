package flit

import "testing"

// FuzzSegmentReassemble checks that any packet configuration the fuzzer
// invents segments and reassembles losslessly.
func FuzzSegmentReassemble(f *testing.F) {
	f.Add(uint8(0), uint8(16), false, uint8(0))
	f.Add(uint8(1), uint8(8), true, uint8(3))
	f.Add(uint8(2), uint8(24), false, uint8(1))
	f.Fuzz(func(t *testing.T, typ8, size8 uint8, trim bool, off uint8) {
		typ := Type(typ8 % uint8(NumTypes))
		flitBytes := 8 + int(size8%8)*4 // 8..36
		p := &Packet{ID: 1, Type: typ, TrimEligible: trim, SectorOffset: off % 4}
		if trim {
			TrimResponse(p)
		}
		fl := segment(p, flitBytes)
		total := 0
		var done *Packet
		for _, fr := range fl {
			if fr.Used <= 0 || fr.Used > flitBytes {
				t.Fatalf("flit used %d of %d", fr.Used, flitBytes)
			}
			total += fr.Used
			for _, d := range arrive(fr) {
				done = d
			}
		}
		if total != p.RequiredBytes() {
			t.Fatalf("segmented %d bytes, required %d", total, p.RequiredBytes())
		}
		if done != p {
			t.Fatal("reassembly incomplete")
		}
	})
}

// FuzzStitchUnstitch drives random stitch sequences and checks the
// wire-format invariants survive.
func FuzzStitchUnstitch(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, types []byte) {
		parent := segment(&Packet{ID: 999, Type: ReadRsp}, 16)[4]
		stitched := 0
		for i, tb := range types {
			if i > 64 {
				break
			}
			p := &Packet{ID: uint64(i + 1), Type: Type(tb % uint8(NumTypes))}
			fl := segment(p, 16)
			cand := fl[len(fl)-1]
			if CanStitch(parent, cand) {
				Stitch(parent, cand)
				stitched++
			}
			if parent.OccupiedBytes() > parent.Size {
				t.Fatalf("parent overflows: %d > %d", parent.OccupiedBytes(), parent.Size)
			}
		}
		out := NewPool().Unstitch(nil, parent)
		if len(out) != stitched {
			t.Fatalf("unstitched %d of %d", len(out), stitched)
		}
		for _, o := range out {
			if o.Used <= 0 || o.Size != parent.Size {
				t.Fatalf("bad unstitched flit %+v", o)
			}
		}
	})
}
