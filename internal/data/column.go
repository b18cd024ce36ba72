package data

import (
	"errors"
	"fmt"
	"math"
)

// ErrNonFinite reports a NaN or ±Inf float value. Relations hold only
// finite floats: a single non-finite value would poison every sum over it
// for good, since maintenance can subtract a value but never undo a NaN.
var ErrNonFinite = errors.New("data: non-finite float value")

// Column stores the values of one attribute of a relation. Exactly one of
// Ints or Floats is non-nil, matching the attribute's Kind: discrete
// attributes use Ints, numeric attributes use Floats. The two-slice layout
// (instead of an interface) keeps inner-loop access monomorphic.
type Column struct {
	Ints   []int64
	Floats []float64
}

// NewIntColumn returns a discrete column over vals (not copied). A nil slice
// yields a valid empty column.
func NewIntColumn(vals []int64) Column {
	if vals == nil {
		vals = []int64{}
	}
	return Column{Ints: vals}
}

// NewFloatColumn returns a numeric column over vals (not copied). A nil
// slice yields a valid empty column.
func NewFloatColumn(vals []float64) Column {
	if vals == nil {
		vals = []float64{}
	}
	return Column{Floats: vals}
}

// IsInt reports whether the column holds discrete int64 values. Empty
// columns may carry nil storage after copies, so the float side decides.
func (c Column) IsInt() bool { return c.Floats == nil }

// Len returns the number of values.
func (c Column) Len() int {
	if c.Floats != nil {
		return len(c.Floats)
	}
	return len(c.Ints)
}

// Float returns row i as a float64 regardless of the underlying type. It is
// the accessor used by aggregate functions, which operate in the sum-product
// semiring over float64.
func (c Column) Float(i int) float64 {
	if c.Floats != nil {
		return c.Floats[i]
	}
	return float64(c.Ints[i])
}

// Int returns row i of a discrete column. It panics on numeric columns;
// callers must only use Int on group-by/join-key attributes, which the schema
// layer guarantees are discrete.
func (c Column) Int(i int) int64 { return c.Ints[i] }

// slice returns the sub-column for rows [lo, hi).
func (c Column) slice(lo, hi int) Column {
	if c.Ints != nil {
		return Column{Ints: c.Ints[lo:hi]}
	}
	return Column{Floats: c.Floats[lo:hi]}
}

// gather returns a new column with rows taken from perm order.
func (c Column) gather(perm []int32) Column {
	if c.Ints != nil {
		out := make([]int64, len(perm))
		for i, p := range perm {
			out[i] = c.Ints[p]
		}
		return Column{Ints: out}
	}
	out := make([]float64, len(perm))
	for i, p := range perm {
		out[i] = c.Floats[p]
	}
	return Column{Floats: out}
}

func (c Column) check(n int, kind Kind) error {
	if c.Ints == nil && c.Floats == nil {
		return fmt.Errorf("data: column has neither int nor float storage")
	}
	if c.Ints != nil && c.Floats != nil {
		return fmt.Errorf("data: column has both int and float storage")
	}
	if c.Len() != n {
		return fmt.Errorf("data: column length %d != relation length %d", c.Len(), n)
	}
	if kind.Discrete() != c.IsInt() {
		return fmt.Errorf("data: column storage does not match attribute kind %v", kind)
	}
	return c.checkFinite()
}

// checkFinite rejects NaN and ±Inf values with an error wrapping
// ErrNonFinite.
func (c Column) checkFinite() error {
	for i, v := range c.Floats {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("row %d holds %v: %w", i, v, ErrNonFinite)
		}
	}
	return nil
}
