// Package majorize implements the vector-majorization machinery the paper's
// comparison framework is built on (§2.1–§2.3 and [MOA11]).
//
// For x, y with equal sums, x majorizes y (x ≻ y) when every prefix sum of
// the non-increasingly sorted x is at least the corresponding prefix sum of
// sorted y. On configuration space, "≻" measures closeness to consensus:
// the one-color configuration is maximal, the n-color configuration minimal
// (paper §2.3, observation 1).
package majorize

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// IntsComparable reports whether x and y have equal length and equal sums,
// the precondition for majorization comparison.
func IntsComparable(x, y []int) bool {
	if len(x) != len(y) {
		return false
	}
	sx, sy := 0, 0
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	return sx == sy
}

// Ints reports whether x ≻ y for integer vectors. Vectors of different
// lengths are compared by implicitly zero-padding the shorter one (zeros do
// not affect majorization). It returns false if the sums differ.
func Ints(x, y []int) bool {
	sx := sortedDescInts(x)
	sy := sortedDescInts(y)
	// Zero-pad to a common length.
	d := len(sx)
	if len(sy) > d {
		d = len(sy)
	}
	px, py, tx, ty := 0, 0, 0, 0
	for i := 0; i < d; i++ {
		if i < len(sx) {
			px += sx[i]
		}
		if i < len(sy) {
			py += sy[i]
		}
		if px < py {
			return false
		}
	}
	for _, v := range sx {
		tx += v
	}
	for _, v := range sy {
		ty += v
	}
	return tx == ty
}

// Floats reports whether x ≻ y for float vectors with tolerance tol on each
// prefix-sum comparison and on the total-sum equality. Different lengths are
// zero-padded.
func Floats(x, y []float64, tol float64) bool {
	sx := sortedDescFloats(x)
	sy := sortedDescFloats(y)
	d := len(sx)
	if len(sy) > d {
		d = len(sy)
	}
	px, py := 0.0, 0.0
	for i := 0; i < d; i++ {
		if i < len(sx) {
			px += sx[i]
		}
		if i < len(sy) {
			py += sy[i]
		}
		if px < py-tol {
			return false
		}
	}
	return math.Abs(px-py) <= tol
}

// Transfer is a Robin-Hood (T-)transform moving Amount units from the
// donor index From to the poorer index To, both in sorted-descending
// coordinates.
type Transfer struct {
	From   int
	To     int
	Amount int
}

// TransferChain returns a sequence of at most len(x)-1 Robin-Hood transfers
// turning sorted(x) into sorted(y), which exists iff x ≻ y (the
// Hardy–Littlewood–Pólya constructive characterization). It returns an
// error if x does not majorize y or the vectors are not comparable.
//
//lint:testhelper the constructive Hardy–Littlewood–Pólya reference that the majorization tests check Ints against
func TransferChain(x, y []int) ([]Transfer, error) {
	if !IntsComparable(x, y) {
		return nil, errors.New("majorize: vectors not comparable (length or sum mismatch)")
	}
	if !Ints(x, y) {
		return nil, errors.New("majorize: x does not majorize y")
	}
	cur := sortedDescInts(x)
	target := sortedDescInts(y)
	var chain []Transfer
	for step := 0; ; step++ {
		if step > len(cur) {
			return nil, fmt.Errorf("majorize: transfer chain did not converge after %d steps", step)
		}
		// Largest i with cur[i] > target[i].
		i := -1
		for idx := range cur {
			if cur[idx] > target[idx] {
				i = idx
			}
		}
		if i == -1 {
			return chain, nil // cur == target
		}
		// Smallest j > i with cur[j] < target[j]. Majorization guarantees
		// one exists.
		j := -1
		for idx := i + 1; idx < len(cur); idx++ {
			if cur[idx] < target[idx] {
				j = idx
				break
			}
		}
		if j == -1 {
			return nil, errors.New("majorize: internal: no recipient found")
		}
		delta := cur[i] - target[i]
		if d := target[j] - cur[j]; d < delta {
			delta = d
		}
		cur[i] -= delta
		cur[j] += delta
		chain = append(chain, Transfer{From: i, To: j, Amount: delta})
	}
}

func sortedDescInts(x []int) []int {
	out := make([]int, len(x))
	copy(out, x)
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

func sortedDescFloats(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}
