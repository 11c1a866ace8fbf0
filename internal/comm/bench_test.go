package comm

import "testing"

// BenchmarkCommGen times plan generation for the two largest
// collectives at 512 GPUs and Small scale, the other set-up cost of a
// flow-backend cell.
func BenchmarkCommGen(b *testing.B) {
	for _, name := range []string{"ring-allreduce", "alltoall"} {
		b.Run(name, func(b *testing.B) {
			sc := Small()
			sc.GPUs = 512
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ByName(name, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
