// Package a is a nopanic fixture: a library package that promised a
// typed-error surface but still panics.
package a

import (
	"errors"
	"fmt"
)

var errBad = errors.New("a: bad input")

func bad(x int) error {
	if x < 0 {
		panic("negative input") // want "panic in a typed-error package"
	}
	if x > 10 {
		panic(fmt.Sprintf("input %d too large", x)) // want "panic in a typed-error package"
	}
	return errBad
}

// waived carries the retired waiver syntax, which suppresses nothing.
func waived() {
	panic("free-list corrupted beyond recovery") //partlint:allow nopanic // want "panic in a typed-error package"
}

func fine(x int) error {
	if x < 0 {
		return fmt.Errorf("%w: %d", errBad, x)
	}
	return nil
}
