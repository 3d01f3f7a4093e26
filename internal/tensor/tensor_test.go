package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Len() != 6 {
		t.Fatalf("Len = %d, want 6", x.Len())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %g, want 0", i, v)
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive dimension")
		}
	}()
	New(2, 0)
}

func TestFromSliceAndAtSet(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if got := x.At(1, 2); got != 6 {
		t.Fatalf("At(1,2) = %g, want 6", got)
	}
	x.Set(9, 0, 1)
	if got := x.At(0, 1); got != 9 {
		t.Fatalf("At(0,1) = %g, want 9", got)
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	x.At(2, 0)
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Reshape(4)
	y.Set(7, 2)
	if x.At(1, 0) != 7 {
		t.Fatal("reshape must share underlying data")
	}
}

func TestReshapeBadSizePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	x.Reshape(3)
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Set(5, 0)
	if x.At(0) != 1 {
		t.Fatal("clone must not share data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if got := Scale(2, a); !Equal(got, FromSlice([]float64{2, 4, 6}, 3), 0) {
		t.Errorf("Scale = %v", got)
	}
	a.AddInPlace(b)
	if !Equal(a, FromSlice([]float64{5, 7, 9}, 3), 0) {
		t.Errorf("AddInPlace = %v", a)
	}
}

func TestSumMaxArgMax(t *testing.T) {
	a := FromSlice([]float64{3, -1, 7, 2}, 4)
	if a.Sum() != 11 {
		t.Errorf("Sum = %g", a.Sum())
	}
	v, i := a.Max()
	if v != 7 || i != 2 {
		t.Errorf("Max = %g at %d", v, i)
	}
	if a.ArgMax() != 2 {
		t.Errorf("ArgMax = %d", a.ArgMax())
	}
}

func TestNorm2(t *testing.T) {
	a := FromSlice([]float64{3, 4}, 2)
	if math.Abs(a.Norm2()-5) > 1e-12 {
		t.Fatalf("Norm2 = %g, want 5", a.Norm2())
	}
}

// matMul and transpose return fresh results through the in-place kernels.
func matMul(a, b *Tensor) *Tensor {
	out := New(a.Dim(0), b.Dim(1))
	MatMulInto(out, a, b)
	return out
}

// transpose is the reference transpose, written from the definition.
func transpose(a *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

func identity(n int) *Tensor {
	id := New(n, n)
	for i := 0; i < n; i++ {
		id.data[i*n+i] = 1
	}
	return id
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := matMul(a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !Equal(got, want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulMismatchPanics(t *testing.T) {
	for _, c := range []struct{ dst, a, b *Tensor }{
		{New(2, 3), New(2, 3), New(2, 3)}, // inner dims
		{New(3, 2), New(2, 3), New(3, 3)}, // dst shape
		{New(6), New(2, 3), New(3, 3)},    // dst rank
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("MatMulInto(%v, %v, %v): expected panic", c.dst.Shape(), c.a.Shape(), c.b.Shape())
				}
			}()
			MatMulInto(c.dst, c.a, c.b)
		}()
	}
}

// naiveMatMul is the reference product: the plain i-k-j loop, one term per
// pass over the output row, skipping zero entries of a.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.data[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.data[i*n+j] += av * b.data[p*n+j]
			}
		}
	}
	return out
}

func bitsEqual(a, b *Tensor) bool {
	if len(a.data) != len(b.data) {
		return false
	}
	for i, v := range a.data {
		if math.Float64bits(v) != math.Float64bits(b.data[i]) {
			return false
		}
	}
	return true
}

// TestMatMulIntoMatchesNaiveBitwise checks the four-term blocked kernel
// against the one-term loop bit for bit: inner sizes that leave every
// remainder mod 4, a zero at each position of a block, negative values, -0,
// an infinity, and a destination holding stale values.
func TestMatMulIntoMatchesNaiveBitwise(t *testing.T) {
	g := NewRNG(13)
	for _, k := range []int{1, 3, 4, 9, 54, 72} {
		for _, n := range []int{1, 36, 288} {
			a := g.Randn(1, 5, k)
			b := g.Randn(1, k, n)
			ad := a.Data()
			// Row 0 dense; rows 1-4 get a zero at block position r-1 of
			// every block; -0 and exact zeros of b mixed in, and an Inf
			// that the skipped zeros must never multiply (0·Inf is NaN).
			for r := 1; r < 5; r++ {
				for p := r - 1; p < k; p += 4 {
					ad[r*k+p] = 0
				}
			}
			if k > 2 {
				ad[2] = math.Copysign(0, -1)
				b.Data()[n] = math.Copysign(0, -1)
			}
			b.Data()[0] = 0
			b.Data()[len(b.Data())-1] = math.Inf(1)
			dst := New(5, n)
			dst.Fill(math.NaN())
			MatMulInto(dst, a, b)
			if want := naiveMatMul(a, b); !bitsEqual(dst, want) {
				t.Fatalf("k=%d n=%d: blocked MatMulInto differs from the one-term loop", k, n)
			}
		}
	}
}

// TestTranspose checks the transposed-operand products on known values:
// aᵀ·I and I·aᵀ are aᵀ, read from a in place. A destination of the
// untransposed shape panics.
func TestTranspose(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	want := FromSlice([]float64{1, 4, 2, 5, 3, 6}, 3, 2)
	viaA, viaB := New(3, 2), New(3, 2)
	MatMulTransAInto(viaA, a, identity(2))
	MatMulTransBInto(viaB, identity(3), a)
	if !Equal(viaA, want, 0) || !Equal(viaB, want, 0) {
		t.Fatalf("aᵀ·I = %v, I·aᵀ = %v, want %v", viaA, viaB, want)
	}
	for name, f := range map[string]func(){
		"MatMulTransAInto": func() { MatMulTransAInto(New(2, 3), a, identity(2)) },
		"MatMulTransBInto": func() { MatMulTransBInto(New(2, 3), identity(3), a) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic for a wrongly shaped destination", name)
				}
			}()
			f()
		}()
	}
}

// TestTransposeInvolution checks that transposing through one product
// kernel and back through the other returns a exactly: each output element
// receives one term, a product with 1.
func TestTransposeInvolution(t *testing.T) {
	g := NewRNG(1)
	f := func(seed uint8) bool {
		m, n := 1+int(seed%7), 1+int(seed/7%9)
		a := g.Randn(1, m, n)
		at, back := New(n, m), New(m, n)
		MatMulTransBInto(at, identity(n), a)
		MatMulTransAInto(back, at, identity(n))
		return bitsEqual(at, transpose(a)) && bitsEqual(back, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTransposedProductsMatchMatMulInto checks MatMulTransAInto and
// MatMulTransBInto bit for bit against MatMulInto over explicit transposes,
// on the shapes of the convolution backward pass and on inner sizes that
// leave every remainder mod 4. The left operand carries a ReLU-like mask of
// zeros, a -0 and a zero row; the right one a -0 and an infinity that a
// skipped zero must never multiply; the destinations hold stale values.
func TestTransposedProductsMatchMatMulInto(t *testing.T) {
	g := NewRNG(14)
	for _, s := range []struct{ m, k, n int }{
		{6, 36, 54}, {6, 36, 9}, {54, 6, 36}, {9, 6, 36}, // conv dW and dcols
		{1, 1, 1}, {3, 5, 7}, {5, 4, 2}, {8, 9, 3}, {4, 72, 5},
	} {
		a := g.Randn(1, s.m, s.k)
		b := g.Randn(1, s.k, s.n)
		ad := a.Data()
		for i := range ad {
			if g.Float64() < 0.5 {
				ad[i] = 0
			}
		}
		ad[len(ad)/2] = math.Copysign(0, -1)
		if s.m > 1 {
			clear(ad[:s.k])
		}
		b.Data()[0] = math.Copysign(0, -1)
		b.Data()[len(b.Data())-1] = math.Inf(1)
		want := New(s.m, s.n)
		MatMulInto(want, a, b)

		gotA := New(s.m, s.n)
		gotA.Fill(math.NaN())
		MatMulTransAInto(gotA, transpose(a), b)
		if !bitsEqual(gotA, want) {
			t.Errorf("%+v: MatMulTransAInto(aᵀ, b) differs from MatMulInto(a, b)", s)
		}
		gotB := New(s.m, s.n)
		gotB.Fill(math.NaN())
		MatMulTransBInto(gotB, a, transpose(b))
		if !bitsEqual(gotB, want) {
			t.Errorf("%+v: MatMulTransBInto(a, bᵀ) differs from MatMulInto(a, b)", s)
		}
	}
}

func TestMatMulIdentityProperty(t *testing.T) {
	g := NewRNG(2)
	f := func(seed uint8) bool {
		n := 1 + int(seed%8)
		a := g.Randn(1, n, n)
		id := New(n, n)
		for i := 0; i < n; i++ {
			id.Set(1, i, i)
		}
		return Equal(matMul(a, id), a, 1e-9) && Equal(matMul(id, a), a, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulDistributesOverAdd(t *testing.T) {
	g := NewRNG(3)
	f := func(seed uint8) bool {
		m, k, n := 1+int(seed%4), 1+int(seed/4%4), 1+int(seed/16%4)
		a := g.Randn(1, m, k)
		b := g.Randn(1, k, n)
		c := g.Randn(1, k, n)
		bc := b.Clone()
		bc.AddInPlace(c)
		left, right := matMul(a, bc), matMul(a, b)
		right.AddInPlace(matMul(a, c))
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestApply(t *testing.T) {
	a := FromSlice([]float64{1, -2}, 2)
	got := Apply(a, math.Abs)
	if !Equal(got, FromSlice([]float64{1, 2}, 2), 0) {
		t.Fatalf("Apply = %v", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).Randn(1, 5)
	b := NewRNG(42).Randn(1, 5)
	if !Equal(a, b, 0) {
		t.Fatal("same seed must produce identical tensors")
	}
	c := NewRNG(43).Randn(1, 5)
	if Equal(a, c, 0) {
		t.Fatal("different seeds should produce different tensors")
	}
}

func TestRNGUniformRange(t *testing.T) {
	u := NewRNG(7).Uniform(-2, 3, 1000)
	for _, v := range u.Data() {
		if v < -2 || v >= 3 {
			t.Fatalf("uniform sample %g out of [-2,3)", v)
		}
	}
}

func TestFillZero(t *testing.T) {
	a := New(3)
	a.Fill(2.5)
	if a.Sum() != 7.5 {
		t.Fatalf("Fill: sum = %g", a.Sum())
	}
	a.Zero()
	if a.Sum() != 0 {
		t.Fatalf("Zero: sum = %g", a.Sum())
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if Equal(New(2, 3), New(3, 2), 1) {
		t.Fatal("different shapes must not compare equal")
	}
	if Equal(New(2), New(2, 1), 1) {
		t.Fatal("different ranks must not compare equal")
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	if s := FromSlice([]float64{1, 2}, 2).String(); s == "" {
		t.Fatal("empty String()")
	}
	if s := New(100).String(); s == "" {
		t.Fatal("empty String() for large tensor")
	}
}
