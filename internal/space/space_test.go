package space

import (
	"math"
	"reflect"
	"testing"
)

func testSpace() Space {
	return New(
		CatAxis("algorithm", "dqn", "reinforce"),
		Axis{Name: "layers", Kind: KindInt, Ints: []int{2, 4, 7}},
		Axis{Name: "pe", Kind: KindInt, Ints: []int{8, 16, 32, 64}, Scale: ScaleLog2, Lo: 3, Hi: 10},
	)
}

func TestValidate(t *testing.T) {
	if err := testSpace().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		s    Space
	}{
		{"no axes", New()},
		{"unnamed", New(Axis{Name: "", Kind: KindInt, Ints: []int{1}})},
		{"empty int axis", New(Axis{Name: "a", Kind: KindInt})},
		{"empty cat axis", New(CatAxis("a"))},
		{"duplicate axis", New(Axis{Name: "a", Kind: KindInt, Ints: []int{1}}, Axis{Name: "a", Kind: KindInt, Ints: []int{2}})},
		{"duplicate value", New(Axis{Name: "a", Kind: KindInt, Ints: []int{1, 1}})},
		{"duplicate choice", New(CatAxis("a", "x", "x"))},
		{"empty choice", New(CatAxis("a", ""))},
		{"separator in name", New(Axis{Name: "a=b", Kind: KindInt, Ints: []int{1}})},
		{"separator in choice", New(CatAxis("a", "x;y"))},
		{"mixed kinds", New(Axis{Name: "a", Kind: KindInt, Ints: []int{1}, Cats: []string{"x"}})},
		{"log2 of zero", New(Axis{Name: "a", Kind: KindInt, Ints: []int{0}, Scale: ScaleLog2})},
	}
	for _, c := range cases {
		err := c.s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if _, ok := err.(*ValidationError); !ok {
			t.Errorf("%s: error %T is not *ValidationError", c.name, err)
		}
	}
}

// TestEnumerationDeterministic pins the enumeration order: last axis
// fastest, repeated calls identical.
func TestEnumerationDeterministic(t *testing.T) {
	s := testSpace()
	a, err := s.Enumerate(0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Enumerate(0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("enumeration order not deterministic")
	}
	if int64(len(a)) != s.Size() {
		t.Fatalf("enumerated %d of %d points", len(a), s.Size())
	}
	// Last axis varies fastest.
	if !reflect.DeepEqual(a[0], Point{0, 0, 0}) || !reflect.DeepEqual(a[1], Point{0, 0, 1}) {
		t.Fatalf("unexpected head order: %v, %v", a[0], a[1])
	}
	if !reflect.DeepEqual(a[len(a)-1], Point{1, 2, 3}) {
		t.Fatalf("unexpected tail point: %v", a[len(a)-1])
	}
}

// TestIndexRoundTrip checks Index(At(i)) == i over the full grid.
func TestIndexRoundTrip(t *testing.T) {
	s := testSpace()
	for i := int64(0); i < s.Size(); i++ {
		p := s.At(i)
		j, err := s.Index(p)
		if err != nil {
			t.Fatal(err)
		}
		if j != i {
			t.Fatalf("Index(At(%d)) = %d", i, j)
		}
	}
	if _, err := s.Index(Point{0, 0}); err == nil {
		t.Fatal("short point accepted")
	}
	if _, err := s.Index(Point{0, 0, 99}); err == nil {
		t.Fatal("out-of-range coordinate accepted")
	}
}

func TestEnumerateLimit(t *testing.T) {
	s := testSpace()
	if _, err := s.Enumerate(s.Size() - 1); err == nil {
		t.Fatal("limit not enforced")
	}
}

// TestSampleReproducible checks seeded sampling: same seed same sequence,
// different seed different sequence, all points distinct and in-space,
// corners always present.
func TestSampleReproducible(t *testing.T) {
	s := testSpace()
	a := s.Sample(10, 42)
	b := s.Sample(10, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different samples")
	}
	c := s.Sample(10, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical samples")
	}
	seen := map[int64]bool{}
	for _, p := range a {
		k, err := s.Index(p)
		if err != nil {
			t.Fatalf("sampled point %v outside space: %v", p, err)
		}
		if seen[k] {
			t.Fatalf("duplicate sample %v", p)
		}
		seen[k] = true
	}
	// Per-algorithm corners: all-min and all-max for each categorical choice.
	for _, want := range []Point{{0, 0, 0}, {0, 2, 3}, {1, 0, 0}, {1, 2, 3}} {
		if k, _ := s.Index(want); !seen[k] {
			t.Fatalf("corner %v missing from sample", want)
		}
	}
}

func TestSampleClampsToSize(t *testing.T) {
	s := New(Axis{Name: "a", Kind: KindInt, Ints: []int{1, 2}}, Axis{Name: "b", Kind: KindInt, Ints: []int{3, 4}})
	pts := s.Sample(100, 1)
	if int64(len(pts)) != s.Size() {
		t.Fatalf("sampled %d of %d points", len(pts), s.Size())
	}
}

// TestVector pins the feature arithmetic the GP kernels were calibrated on:
// linear and log2 normalization with explicit or derived bounds, and
// categorical features spread over [0,1].
func TestVector(t *testing.T) {
	s := testSpace()
	v := s.Vector(Point{1, 1, 2})
	want := []float64{
		1.0,                            // reinforce: index 1 of 2
		(4.0 - 2.0) / (7.0 - 2.0),      // layers: derived bounds 2..7
		(math.Log2(32) - 3) / (10 - 3), // pe: log2 with explicit bounds
	}
	if len(v) != len(want) {
		t.Fatalf("vector length %d, want %d", len(v), len(want))
	}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("dim %d = %v, want %v", i, v[i], want[i])
		}
	}
	one := Axis{Name: "a", Kind: KindCat, Cats: []string{"only"}}
	if one.CatFeature("only") != 0.5 {
		t.Fatal("single-choice categorical feature != 0.5")
	}
	if one.CatFeature("missing") != -1 {
		t.Fatal("unknown choice feature != -1")
	}
}

func TestCornersWithoutCatAxes(t *testing.T) {
	s := New(Axis{Name: "a", Kind: KindInt, Ints: []int{1, 2, 3}}, Axis{Name: "b", Kind: KindInt, Ints: []int{4, 5}})
	pts := s.Sample(2, 7)
	if !reflect.DeepEqual(pts[0], Point{0, 0}) || !reflect.DeepEqual(pts[1], Point{2, 1}) {
		t.Fatalf("corners = %v, %v", pts[0], pts[1])
	}
}

func TestAxisIndexAndDims(t *testing.T) {
	s := testSpace()
	if !reflect.DeepEqual(s.Dims(), []int{2, 3, 4}) {
		t.Fatalf("Dims = %v", s.Dims())
	}
}
