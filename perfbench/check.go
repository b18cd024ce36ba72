package main

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/moo"
)

// sumRelTol is the relative bound within which a sum aggregate must agree
// with its reference: evaluation order differs (factorized vs flat join,
// maintained vs recomputed), so float sums may differ in their last bits.
// A group whose value is tiny against its column (cancellation) is held to
// sumRelTol times a thousandth of the column's largest magnitude instead.
// Monoid columns (MIN, MAX, DISTINCT, top-k) must match exactly.
const sumRelTol = 1e-9

// viewRows flattens a result view into packed key → its first ncols values.
func viewRows(v *moo.ViewData, ncols int) map[string][]float64 {
	out := make(map[string][]float64, v.NumRows())
	for i := 0; i < v.NumRows(); i++ {
		out[data.PackKey(v.Key(i)...)] = append([]float64(nil), v.Vals[i*v.Stride:i*v.Stride+ncols]...)
	}
	return out
}

// compareRows checks got against want: the same groups, the first sums
// columns within sumRelTol, every later column exactly.
func compareRows(label string, got, want map[string][]float64, sums int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d groups, want %d", label, len(got), len(want))
	}
	var scale []float64
	for _, row := range want {
		if scale == nil {
			scale = make([]float64, len(row))
		}
		for c, v := range row {
			scale[c] = math.Max(scale[c], math.Abs(v))
		}
	}
	for key, wrow := range want {
		grow, ok := got[key]
		if !ok {
			return fmt.Errorf("%s: group %v missing", label, unpackKey(key))
		}
		if len(grow) != len(wrow) {
			return fmt.Errorf("%s: group %v has %d columns, want %d", label, unpackKey(key), len(grow), len(wrow))
		}
		for c, w := range wrow {
			g := grow[c]
			if c >= sums {
				if g != w {
					return fmt.Errorf("%s: group %v column %d: got %v, want exactly %v", label, unpackKey(key), c, g, w)
				}
				continue
			}
			bound := sumRelTol * math.Max(math.Max(math.Abs(g), math.Abs(w)), 1e-3*scale[c])
			if !(math.Abs(g-w) <= bound) {
				return fmt.Errorf("%s: group %v column %d: got %v, want %v (relative bound %g)", label, unpackKey(key), c, g, w, sumRelTol)
			}
		}
	}
	return nil
}

func unpackKey(key string) []int64 {
	out := make([]int64, data.KeyLen(key))
	data.UnpackKey(key, out)
	return out
}
