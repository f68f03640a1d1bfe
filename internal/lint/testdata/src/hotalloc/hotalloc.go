// Package hotalloc is the fixture for the hotalloc analyzer.
package hotalloc

import "fmt"

type ring struct {
	buf []int
}

// Hot is the positive case: every allocating construct in an annotated
// function is flagged.
//
//consensus:hotpath
func (r *ring) Hot(n int) int {
	s := make([]int, n) // want `make allocates`
	var acc []int
	for i := 0; i < n; i++ {
		acc = append(acc, s[i]) // want `append to nil-declared slice acc`
	}
	f := func() int { return n } // want `function literal allocates`
	return len(acc) + f()
}

// Grow appends into pre-sized scratch — not flagged — and its one-time
// growth branch carries an explicit waiver.
//
//consensus:hotpath
func (r *ring) Grow(xs []int) int {
	if cap(r.buf) < len(xs) {
		r.buf = make([]int, len(xs)) //lint:alloc one-time growth to steady state
	}
	r.buf = append(r.buf[:0], xs...)
	t := 0
	for _, x := range r.buf {
		t += x
	}
	return t
}

// Prose only mentions the //consensus:hotpath directive in its doc
// comment, so it is not a hot path and its allocation is not flagged.
func Prose(n int) []int {
	return make([]int, n)
}

// Box returns a concrete value through an interface result.
//
//consensus:hotpath
func Box(v int) any {
	return v // want `boxes int into any`
}

// Sprint formats on the hot path.
//
//consensus:hotpath
func Sprint(v int) string {
	return fmt.Sprintf("%d", v) // want `fmt\.Sprintf allocates`
}

// Concat builds a string on the hot path.
//
//consensus:hotpath
func Concat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

// Bytes converts between string and []byte.
//
//consensus:hotpath
func Bytes(s string) []byte {
	return []byte(s) // want `conversion allocates`
}

// Literals: slice/map literals and &composite addresses allocate.
//
//consensus:hotpath
func Literals() (int, int) {
	xs := []int{1, 2, 3}  // want `slice literal allocates`
	m := map[string]int{} // want `map literal allocates`
	p := &ring{}          // want `&composite literal allocates`
	return len(xs) + len(m), len(p.buf)
}

func sink(v any) { _ = v }

// Pass boxes its argument into sink's interface parameter.
//
//consensus:hotpath
func Pass(v int) {
	sink(v) // want `argument v boxes int into`
}

// PassPtr passes a pointer: fits the interface word, no heap copy.
//
//consensus:hotpath
func PassPtr(p *ring) {
	sink(p)
}

// PassConst passes a constant: folds to static interface data.
//
//consensus:hotpath
func PassConst() {
	sink(3)
}

// Cold has no annotation: the same constructs draw no diagnostics.
func Cold(n int) []int {
	return make([]int, n)
}

func notHot(n int) []int { // consensus:hotpath (trailing comment, no leading //: not a directive)
	return make([]int, n)
}
