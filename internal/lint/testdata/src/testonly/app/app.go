// Package app uses lib from non-test code.
package app

import (
	"fmt"

	"testonly/internal/lib"
)

// Describe prints a lib.T through fmt and calls lib's shared helpers.
func Describe() string {
	lib.Stale()
	return fmt.Sprint(lib.T{}, lib.Shared())
}
