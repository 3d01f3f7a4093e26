package space

import "testing"

// benchSpace mirrors the Table II grid plus the algorithm axis — the shape
// the dse layer enumerates, samples, and indexes on every Phase-2 run.
func benchSpace() Space {
	return New(
		CatAxis("algorithm", "dqn", "reinforce"),
		Axis{Name: "layers", Kind: KindInt, Ints: []int{2, 3, 4, 5, 6, 7, 8, 9, 10}, Lo: 2, Hi: 10},
		Axis{Name: "filters", Kind: KindInt, Ints: []int{32, 48, 64}, Lo: 32, Hi: 64},
		Axis{Name: "pe_rows", Kind: KindInt, Ints: []int{8, 16, 32, 64, 128, 256, 512, 1024}, Scale: ScaleLog2, Lo: 3, Hi: 10},
		Axis{Name: "pe_cols", Kind: KindInt, Ints: []int{8, 16, 32, 64, 128, 256, 512, 1024}, Scale: ScaleLog2, Lo: 3, Hi: 10},
		Axis{Name: "sram_kb", Kind: KindInt, Ints: []int{32, 64, 128, 256, 512, 1024, 2048, 4096}, Scale: ScaleLog2, Lo: 5, Hi: 12},
	)
}

func BenchmarkEnumerate(b *testing.B) {
	s := New(benchSpace().Axes[:4]...) // 2*9*3*8 = 432 points
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := s.Enumerate(0)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 432 {
			b.Fatal("bad enumeration")
		}
	}
}

func BenchmarkSample(b *testing.B) {
	s := benchSpace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if pts := s.Sample(256, int64(i)+1); len(pts) != 256 {
			b.Fatal("short sample")
		}
	}
}

func BenchmarkIndexRoundTrip(b *testing.B) {
	s := benchSpace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idx := int64(i) % s.Size()
		j, err := s.Index(s.At(idx))
		if err != nil || j != idx {
			b.Fatal("round trip failed")
		}
	}
}

func BenchmarkVector(b *testing.B) {
	s := benchSpace()
	p := s.At(s.Size() / 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(s.Vector(p)) != 6 {
			b.Fatal("bad vector")
		}
	}
}
