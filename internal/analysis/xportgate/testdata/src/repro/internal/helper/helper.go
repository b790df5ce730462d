// Package helper leaks a backend: a neutral-looking utility package that
// imports shm, one hop from the gated package.
package helper

import "repro/internal/xport/shm"

func Providers() []shm.Provider { return nil }
