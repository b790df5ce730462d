// Package waiverfix exercises waiver hygiene: a live waiver (the
// suppressed diagnostic still fires), a stale one left behind by a
// refactor, a typo'd analyzer name, and a self-waiver.
package waiverfix

import "errors"

var errBad = errors.New("waiverfix: bad input")

// live keeps a live waiver: the panic below still fires nopanic.
func live(x int) {
	if x < 0 {
		panic("free list corrupted") //partlint:allow nopanic unrecoverable
	}
}

// cold carries a leftover waiver: the panic it excused became an error.
func cold(x int) error {
	if x < 0 {
		return errBad //partlint:allow nopanic leftover from refactor // want "stale waiver: no nopanic diagnostic fires on this line anymore"
	}
	return nil
}

// typo names an analyzer that does not exist, so it suppresses nothing.
func typo(x int) {
	if x < 0 {
		panic("negative") //partlint:allow nopanik misspelled // want "waiver names unknown analyzer"
	}
}

// hush tries to waive the waiver checker itself.
func hush() int {
	y := 2 //partlint:allow waiverhygiene quiet // want "waiverhygiene findings cannot be waived"
	return y
}
