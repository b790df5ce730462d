// Package taintdep is the dependency side of the detertaint
// cross-package fixture: Stamp reads the wall clock, Span hides the read
// a helper hop down, and Emit writes a record. The reads are reported
// here, at their site.
package taintdep

import (
	"fmt"
	"io"
	"time"
)

// Stamp returns the wall clock.
func Stamp() int64 {
	return time.Now().UnixNano() // want "time.Now in a sim-reachable package"
}

// Span hides the wall-clock read behind a local helper.
func Span() int64 {
	return spanImpl()
}

func spanImpl() int64 {
	return time.Now().Unix() // want "time.Now in a sim-reachable package"
}

// Emit writes a record.
func Emit(w io.Writer, v int) {
	fmt.Fprintln(w, v)
}
