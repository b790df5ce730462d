// Package mpi is a sanctioned boundary package: it builds concrete
// providers, so its backend imports must not propagate to importers.
package mpi

import "repro/internal/ibv"

func Register() *ibv.QP { return &ibv.QP{} }
