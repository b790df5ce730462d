package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
)

// Output checks. Every sender thread writes a stamp derived from (seed,
// request, round, partition) into the first 8 bytes of its partition before
// Pready; the receiver verifies every stamp after each Wait. A repetition
// also ends with a digest of the receive buffers and of every virtual
// timestamp it recorded, which later repetitions (and, for sharded
// workloads, the serial oracle) must reproduce exactly.

// stampBytes is the stamp width; every partition must be at least this big.
const stampBytes = 8

// stampValue is the stamp of one partition in one round.
func stampValue(seed uint64, req, round, part int) uint64 {
	return mix(seed, 3, uint64(req), uint64(round), uint64(part))
}

// writeStamp stamps partition part of buf.
func writeStamp(buf []byte, partBytes int, seed uint64, req, round, part int) {
	binary.LittleEndian.PutUint64(buf[part*partBytes:], stampValue(seed, req, round, part))
}

// badStamps counts the partitions of buf whose stamp is not the one the
// sender writes for (req, round).
func badStamps(buf []byte, parts int, seed uint64, req, round int) int {
	partBytes := len(buf) / parts
	bad := 0
	for i := 0; i < parts; i++ {
		if binary.LittleEndian.Uint64(buf[i*partBytes:]) != stampValue(seed, req, round, i) {
			bad++
		}
	}
	return bad
}

// fillPattern writes seeded bytes into a send buffer, so the receive-buffer
// digests witness real data movement beyond the stamps.
func fillPattern(buf []byte, seed uint64, req int) {
	for i := 0; i < len(buf); i += 8 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], mix(seed, 4, uint64(req), uint64(i)))
		copy(buf[i:], w[:])
	}
}

// digest accumulates an FNV-1a hash of buffers and integers. Writes to a
// hash.Hash never fail.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{h: fnv.New64a()} }

func (d digest) bytes(b []byte) { d.h.Write(b) }

func (d digest) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d digest) sum() uint64 { return d.h.Sum64() }
