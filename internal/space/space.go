// Package space is AutoPilot's typed, extensible parameter-space layer: an
// ordered list of named axes — integer-valued (layers, filters, PE array
// shape, scratchpad sizes) or categorical (training algorithm) — with
// deterministic enumeration order, an index↔point bijection, seeded
// sampling, and per-axis vectorization hooks for the GP/BO layer.
//
// The package generalizes the paper's fixed Table II grid (layers × filters
// × PE array × scratchpads) so new search dimensions — the AutoSoC-style
// algorithm–SoC co-search, scenario knobs, component catalogs — plug in as
// axes instead of hand-edits through every layer. internal/dse builds its
// Table II space on top of this package; the sampling and enumeration here
// reproduce the historical dse sequences bit for bit when the axis list
// matches the legacy grid.
package space

import (
	"fmt"
	"math"
	"strings"

	"autopilot/internal/tensor"
)

// Kind discriminates axis value types.
type Kind int

// Axis kinds.
const (
	// KindInt is an ordered integer axis (e.g. layers, PE rows).
	KindInt Kind = iota
	// KindCat is an unordered categorical axis (e.g. training algorithm).
	KindCat
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindCat:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Scale selects the feature transform applied to an integer axis before
// normalization.
type Scale int

// Axis feature scales.
const (
	// ScaleLinear normalizes raw values.
	ScaleLinear Scale = iota
	// ScaleLog2 normalizes log2 of the values — the natural scale for
	// power-of-two hardware dimensions.
	ScaleLog2
)

// Axis is one named search dimension. Exactly one of Ints/Cats holds the
// admissible values, matching Kind. For integer axes, Scale and the Lo/Hi
// normalization bounds (in transformed units) control Feature; Lo == Hi
// derives the bounds from the value range.
type Axis struct {
	Name string
	Kind Kind

	Ints []int    // KindInt values, in enumeration order
	Cats []string // KindCat choices, in enumeration order

	Scale  Scale   // feature transform for KindInt
	Lo, Hi float64 // normalization bounds in transformed units; Lo == Hi derives them
}

// CatAxis builds a categorical axis.
func CatAxis(name string, choices ...string) Axis {
	return Axis{Name: name, Kind: KindCat, Cats: choices}
}

// Len returns the number of admissible values.
func (a Axis) Len() int {
	if a.Kind == KindCat {
		return len(a.Cats)
	}
	return len(a.Ints)
}

// bounds resolves the normalization bounds in transformed units.
func (a Axis) bounds() (lo, hi float64) {
	if a.Lo != a.Hi {
		return a.Lo, a.Hi
	}
	if len(a.Ints) == 0 {
		return 0, 0
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range a.Ints {
		t := a.transform(float64(v))
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	return lo, hi
}

// transform applies the axis scale.
func (a Axis) transform(v float64) float64 {
	if a.Scale == ScaleLog2 {
		return math.Log2(v)
	}
	return v
}

// Normalize maps a raw integer-axis value onto the [0,1] feature scale the
// GP kernels consume. Values outside the configured bounds extrapolate
// linearly beyond [0,1].
func (a Axis) Normalize(v float64) float64 {
	t := a.transform(v)
	lo, hi := a.bounds()
	if hi == lo {
		return 0.5
	}
	return (t - lo) / (hi - lo)
}

// CatFeature maps a categorical choice onto the feature scale: the
// normalized choice index, 0.5 for single-choice axes, and -1 for choices
// the axis does not contain.
func (a Axis) CatFeature(choice string) float64 {
	for i, c := range a.Cats {
		if c == choice {
			return a.Feature(i)
		}
	}
	return -1
}

// Feature returns the normalized feature of the i-th value.
func (a Axis) Feature(i int) float64 {
	if a.Kind == KindCat {
		if len(a.Cats) <= 1 {
			return 0.5
		}
		return float64(i) / float64(len(a.Cats)-1)
	}
	return a.Normalize(float64(a.Ints[i]))
}

// ValidationError reports an invalid axis definition.
type ValidationError struct {
	Axis   string
	Reason string
}

func (e *ValidationError) Error() string {
	if e.Axis == "" {
		return "space: " + e.Reason
	}
	return fmt.Sprintf("space: axis %q: %s", e.Axis, e.Reason)
}

// validate checks one axis definition.
func (a Axis) validate() error {
	if a.Name == "" {
		return &ValidationError{Reason: "unnamed axis"}
	}
	if strings.ContainsAny(a.Name, "=;") {
		return &ValidationError{Axis: a.Name, Reason: "name contains an encoding separator"}
	}
	switch a.Kind {
	case KindInt:
		if len(a.Cats) > 0 {
			return &ValidationError{Axis: a.Name, Reason: "int axis with categorical choices"}
		}
		if len(a.Ints) == 0 {
			return &ValidationError{Axis: a.Name, Reason: "empty axis"}
		}
		seen := map[int]bool{}
		for _, v := range a.Ints {
			if seen[v] {
				return &ValidationError{Axis: a.Name, Reason: fmt.Sprintf("duplicate value %d", v)}
			}
			seen[v] = true
			if a.Scale == ScaleLog2 && v <= 0 {
				return &ValidationError{Axis: a.Name, Reason: fmt.Sprintf("non-positive value %d on a log2 axis", v)}
			}
		}
	case KindCat:
		if len(a.Ints) > 0 {
			return &ValidationError{Axis: a.Name, Reason: "categorical axis with int values"}
		}
		if len(a.Cats) == 0 {
			return &ValidationError{Axis: a.Name, Reason: "empty axis"}
		}
		seen := map[string]bool{}
		for _, c := range a.Cats {
			if c == "" {
				return &ValidationError{Axis: a.Name, Reason: "empty choice"}
			}
			if strings.ContainsAny(c, "=;") {
				return &ValidationError{Axis: a.Name, Reason: fmt.Sprintf("choice %q contains an encoding separator", c)}
			}
			if seen[c] {
				return &ValidationError{Axis: a.Name, Reason: fmt.Sprintf("duplicate choice %q", c)}
			}
			seen[c] = true
		}
	default:
		return &ValidationError{Axis: a.Name, Reason: fmt.Sprintf("unknown kind %d", int(a.Kind))}
	}
	return nil
}

// Point identifies one joint design: the value index chosen on each axis,
// in axis order.
type Point []int

// Clone returns an independent copy of the point.
func (p Point) Clone() Point {
	out := make(Point, len(p))
	copy(out, p)
	return out
}

// Space is an ordered list of axes. The zero value is an empty space; build
// one with New and check it with Validate before use.
type Space struct {
	Axes []Axis
}

// New assembles a space from axes in search order.
func New(axes ...Axis) Space {
	return Space{Axes: axes}
}

// Validate checks every axis and rejects duplicate axis names with a typed
// *ValidationError.
func (s Space) Validate() error {
	if len(s.Axes) == 0 {
		return &ValidationError{Reason: "no axes"}
	}
	seen := map[string]bool{}
	for _, a := range s.Axes {
		if err := a.validate(); err != nil {
			return err
		}
		if seen[a.Name] {
			return &ValidationError{Axis: a.Name, Reason: "duplicate axis"}
		}
		seen[a.Name] = true
	}
	return nil
}

// Dims returns the cardinality of every axis — the genome layout the
// evolutionary optimizers consume.
func (s Space) Dims() []int {
	out := make([]int, len(s.Axes))
	for i, a := range s.Axes {
		out[i] = a.Len()
	}
	return out
}

// Size returns the number of joint points.
func (s Space) Size() int64 {
	n := int64(1)
	for _, a := range s.Axes {
		n *= int64(a.Len())
	}
	return n
}

// At returns the i-th point of the deterministic enumeration order: mixed
// radix with the last axis varying fastest, matching nested loops over the
// axes in order.
func (s Space) At(i int64) Point {
	p := make(Point, len(s.Axes))
	for k := len(s.Axes) - 1; k >= 0; k-- {
		n := int64(s.Axes[k].Len())
		p[k] = int(i % n)
		i /= n
	}
	return p
}

// Index inverts At: the enumeration position of a point.
func (s Space) Index(p Point) (int64, error) {
	if len(p) != len(s.Axes) {
		return 0, fmt.Errorf("space: point has %d coordinates, want %d", len(p), len(s.Axes))
	}
	var idx int64
	for k, a := range s.Axes {
		if p[k] < 0 || p[k] >= a.Len() {
			return 0, fmt.Errorf("space: axis %q index %d outside [0,%d)", a.Name, p[k], a.Len())
		}
		idx = idx*int64(a.Len()) + int64(p[k])
	}
	return idx, nil
}

// Contains reports whether p is a well-formed point of the space.
func (s Space) Contains(p Point) bool {
	_, err := s.Index(p)
	return err == nil
}

// Enumerate materializes every point in enumeration order. It refuses
// spaces above the limit — exhaustive sweeps are only tractable on pinned
// or reduced spaces. A limit of 0 defaults to 65536 points.
func (s Space) Enumerate(limit int64) ([]Point, error) {
	if limit <= 0 {
		limit = 1 << 16
	}
	if s.Size() > limit {
		return nil, fmt.Errorf("space: %d points exceeds enumeration limit %d", s.Size(), limit)
	}
	out := make([]Point, 0, s.Size())
	for i := int64(0); i < s.Size(); i++ {
		out = append(out, s.At(i))
	}
	return out, nil
}

// maxCornerCombos bounds the categorical cross product seeded as corners.
const maxCornerCombos = 64

// corners returns the seeded corner points: for every combination of
// categorical choices (up to maxCornerCombos, else just the global pair),
// the all-minimum and all-maximum integer corner. With no categorical axes
// this is exactly the historical two-corner seeding.
func (s Space) corners() []Point {
	var catIdx []int
	combos := int64(1)
	for i, a := range s.Axes {
		if a.Kind == KindCat {
			catIdx = append(catIdx, i)
			combos *= int64(a.Len())
		}
	}
	if combos > maxCornerCombos {
		catIdx, combos = nil, 1
	}
	out := make([]Point, 0, 2*combos)
	for c := int64(0); c < combos; c++ {
		lo := make(Point, len(s.Axes))
		hi := make(Point, len(s.Axes))
		for i, a := range s.Axes {
			hi[i] = a.Len() - 1
		}
		// Spread the combo index over the categorical axes, last fastest.
		rem := c
		for k := len(catIdx) - 1; k >= 0; k-- {
			i := catIdx[k]
			n := int64(s.Axes[i].Len())
			v := int(rem % n)
			rem /= n
			lo[i], hi[i] = v, v
		}
		out = append(out, lo, hi)
	}
	return out
}

// Sample draws n distinct points uniformly from the space, always including
// the corner points so downstream optimizers see the full dynamic range.
// The draw sequence — one rng.Intn per axis in axis order per attempt, with
// dedup on the enumeration index and a 200·n miss budget — reproduces the
// historical dse sampling bit for bit on the legacy axis list.
func (s Space) Sample(n int, seed int64) []Point {
	rng := tensor.NewRNG(seed)
	seen := map[int64]bool{}
	var out []Point
	add := func(p Point) {
		k, err := s.Index(p)
		if err != nil {
			panic(err) // only an empty axis, which Validate rejects
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	for _, p := range s.corners() {
		add(p)
	}
	if int64(n) > s.Size() {
		n = int(s.Size())
	}
	misses := 0
	for len(out) < n && misses < 200*n {
		before := len(out)
		p := make(Point, len(s.Axes))
		for i, a := range s.Axes {
			p[i] = rng.Intn(a.Len())
		}
		add(p)
		if len(out) == before {
			misses++
		}
	}
	return out
}

// Vector encodes a point as the normalized feature vector the GP/BO layer
// consumes: one dimension per axis, in axis order.
func (s Space) Vector(p Point) []float64 {
	out := make([]float64, len(s.Axes))
	for i, a := range s.Axes {
		out[i] = a.Feature(p[i])
	}
	return out
}
