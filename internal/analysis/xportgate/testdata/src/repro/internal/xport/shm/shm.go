// Package shm is a fixture stub for the concrete shared-memory SPI backend.
package shm

type Provider struct{ Name string }
