// Package tensor provides the minimal dense float64 tensor math used by the
// neural-network and reinforcement-learning substrates. It is deliberately
// small: shapes, element access, matrix multiplication, and the im2col
// gather needed for 2-D convolutions. The product kernels (MatMulInto and
// its transposed-operand forms) and ConvPlan's Gather and Scatter write into
// a caller's buffers, so a layer can reuse them from call to call.
// Everything is deterministic given a seeded RNG so experiments are
// reproducible.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, row-major float64 tensor.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape.
// A tensor with no dimensions is a scalar holding one element.
func New(shape ...int) *Tensor {
	s := copyShape(shape)
	n := 1
	for _, d := range s {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, s))
		}
		n *= d
	}
	return &Tensor{shape: s, data: make([]float64, n)}
}

// copyShape copies a shape argument. Messages format the copy, never the
// argument, so a variadic shape can stay on the caller's stack.
func copyShape(shape []int) []int {
	s := make([]int, len(shape))
	copy(s, shape)
	return s
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); callers must not alias it unless they intend to.
func FromSlice(data []float64, shape ...int) *Tensor {
	s := copyShape(shape)
	n := 1
	for _, d := range s {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v requires %d elements, got %d", s, n, len(data)))
	}
	return &Tensor{shape: s, data: data}
}

// Shape returns the tensor's dimensions. The returned slice must not be modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage in row-major order.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view of t with a new shape covering the same elements.
// The underlying data is shared.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	s := copyShape(shape)
	n := 1
	for _, d := range s {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), s, n))
	}
	return &Tensor{shape: s, data: t.data}
}

func (t *Tensor) index(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.index(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.index(idx)] = v }

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// AddInPlace adds o element-wise into t.
func (t *Tensor) AddInPlace(o *Tensor) {
	mustSameLen(t, o, "AddInPlace")
	for i, v := range o.data {
		t.data[i] += v
	}
}

// ScaleInPlace multiplies every element by a.
func (t *Tensor) ScaleInPlace(a float64) {
	for i := range t.data {
		t.data[i] *= a
	}
}

// Scale returns a*t.
func Scale(a float64, t *Tensor) *Tensor {
	r := t.Clone()
	r.ScaleInPlace(a)
	return r
}

// Apply returns a new tensor with f applied to every element.
func Apply(t *Tensor, f func(float64) float64) *Tensor {
	r := New(t.shape...)
	for i, v := range t.data {
		r.data[i] = f(v)
	}
	return r
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Max returns the maximum element and its flat index.
func (t *Tensor) Max() (float64, int) {
	best, arg := math.Inf(-1), -1
	for i, v := range t.data {
		if v > best {
			best, arg = v, i
		}
	}
	return best, arg
}

// Norm2 returns the Euclidean norm of the flattened tensor.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MatMulInto sets dst (m×n) to the matrix product of a (m×k) and b (k×n).
// dst must not share storage with a or b. The loop runs in i-k-j order,
// streaming rows of b, and skips the zero entries of a. Each pass over an
// output row adds the terms of the next four nonzero entries of a's row:
// o + a0·b0 + a1·b1 + a2·b2 + a3·b3 evaluates left to right, so every output
// element receives the same additions, in the same order, as a loop adding
// one term per pass, and the result does not depend on the blocking.
func MatMulInto(dst, a, b *Tensor) {
	m, k, n := productDims("MatMulInto", dst, a, b, false, false)
	var nz [4]int // indices into a's row of the pending nonzero terms
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := dst.data[i*n : (i+1)*n]
		clear(orow)
		pending := 0
		for p, av := range arow {
			if av == 0 {
				continue
			}
			nz[pending] = p
			if pending++; pending < 4 {
				continue
			}
			pending = 0
			a0, a1, a2, a3 := arow[nz[0]], arow[nz[1]], arow[nz[2]], arow[nz[3]]
			b0 := b.data[nz[0]*n:][:len(orow)]
			b1 := b.data[nz[1]*n:][:len(orow)]
			b2 := b.data[nz[2]*n:][:len(orow)]
			b3 := b.data[nz[3]*n:][:len(orow)]
			for j, o := range orow {
				orow[j] = o + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for _, p := range nz[:pending] {
			av, brow := arow[p], b.data[p*n:][:len(orow)]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulTransAInto sets dst (m×n) to aᵀ·b for a (k×m) and b (k×n), reading
// a's columns in place; dst must not share storage with a or b. Every output
// element receives exactly the additions MatMulInto(dst, aᵀ, b) gives it, in
// the same order. The last one to three terms of a row take one pass
// together, which matters when k is a few filters.
func MatMulTransAInto(dst, a, b *Tensor) {
	m, k, n := productDims("MatMulTransAInto", dst, a, b, true, false)
	var nz [4]int
	for i := 0; i < m; i++ {
		orow := dst.data[i*n : (i+1)*n]
		clear(orow)
		pending := 0
		for p := 0; p < k; p++ {
			if a.data[p*m+i] == 0 {
				continue
			}
			nz[pending] = p
			if pending++; pending < 4 {
				continue
			}
			pending = 0
			a0, a1, a2, a3 := a.data[nz[0]*m+i], a.data[nz[1]*m+i], a.data[nz[2]*m+i], a.data[nz[3]*m+i]
			b0 := b.data[nz[0]*n:][:len(orow)]
			b1 := b.data[nz[1]*n:][:len(orow)]
			b2 := b.data[nz[2]*n:][:len(orow)]
			b3 := b.data[nz[3]*n:][:len(orow)]
			for j, o := range orow {
				orow[j] = o + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		// The last one to three terms, in one pass.
		var ta [3]float64
		var tb [3][]float64
		for t, p := range nz[:pending] {
			ta[t], tb[t] = a.data[p*m+i], b.data[p*n:][:len(orow)]
		}
		switch b0, b1, b2 := tb[0], tb[1], tb[2]; pending {
		case 1:
			for j, o := range orow {
				orow[j] = o + ta[0]*b0[j]
			}
		case 2:
			for j, o := range orow {
				orow[j] = o + ta[0]*b0[j] + ta[1]*b1[j]
			}
		case 3:
			for j, o := range orow {
				orow[j] = o + ta[0]*b0[j] + ta[1]*b1[j] + ta[2]*b2[j]
			}
		}
	}
}

// MatMulTransBInto sets dst (m×n) to a·bᵀ for a (m×k) and b (n×k), reading
// b's rows in place as the columns of bᵀ; dst must not share storage with a
// or b. Every output element receives exactly the additions
// MatMulInto(dst, a, bᵀ) gives it, in the same order; as in
// MatMulTransAInto the last one to three terms take one pass.
func MatMulTransBInto(dst, a, b *Tensor) {
	m, k, n := productDims("MatMulTransBInto", dst, a, b, false, true)
	bd := b.data
	var nz [4]int
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := dst.data[i*n : (i+1)*n]
		clear(orow)
		pending := 0
		for p, av := range arow {
			if av == 0 {
				continue
			}
			nz[pending] = p
			if pending++; pending < 4 {
				continue
			}
			pending = 0
			p0, p1, p2, p3 := nz[0], nz[1], nz[2], nz[3]
			a0, a1, a2, a3 := arow[p0], arow[p1], arow[p2], arow[p3]
			for j, o := range orow {
				q := j * k // bᵀ's column j is b's row j
				orow[j] = o + a0*bd[q+p0] + a1*bd[q+p1] + a2*bd[q+p2] + a3*bd[q+p3]
			}
		}
		// The last one to three terms, in one pass.
		var ta [3]float64
		for t, p := range nz[:pending] {
			ta[t] = arow[p]
		}
		switch p0, p1, p2 := nz[0], nz[1], nz[2]; pending {
		case 1:
			for j, o := range orow {
				orow[j] = o + ta[0]*bd[j*k+p0]
			}
		case 2:
			for j, o := range orow {
				q := j * k
				orow[j] = o + ta[0]*bd[q+p0] + ta[1]*bd[q+p1]
			}
		case 3:
			for j, o := range orow {
				q := j * k
				orow[j] = o + ta[0]*bd[q+p0] + ta[1]*bd[q+p1] + ta[2]*bd[q+p2]
			}
		}
	}
}

// productDims checks the shapes of dst = op(a)·op(b), where op transposes
// its operand when the flag says so, and returns m, k and n.
func productDims(op string, dst, a, b *Tensor, transA, transB bool) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 tensors", op))
	}
	m, k = a.shape[0], a.shape[1]
	if transA {
		m, k = k, m
	}
	k2, n := b.shape[0], b.shape[1]
	if transB {
		k2, n = n, k2
	}
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner dims mismatch %d vs %d", op, k, k2))
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s dst %v, want [%d %d]", op, dst.shape, m, n))
	}
	return m, k, n
}

// ArgMax returns the flat index of the maximum element.
func (t *Tensor) ArgMax() int {
	_, i := t.Max()
	return i
}

// Equal reports whether two tensors have identical shape and elements within tol.
func Equal(a, b *Tensor, tol float64) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small tensors for debugging.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 16 {
		fmt.Fprintf(&b, "%v", t.data)
	} else {
		fmt.Fprintf(&b, "[%g %g ... %g]", t.data[0], t.data[1], t.data[len(t.data)-1])
	}
	return b.String()
}

func mustSameLen(a, b *Tensor, op string) {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("tensor: %s length mismatch %v vs %v", op, a.shape, b.shape))
	}
}
