package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// A stdlib-only reader of the gzipped protobuf profiles runtime/pprof
// writes. It decodes just enough of the profile.proto schema to attribute
// every CPU sample to a layer of the program: samples (field 2), locations
// (4), functions (5) and the string table (6).

var errProto = errors.New("malformed profile")

// pbField is one decoded protobuf field: a varint or fixed value, or the
// bytes of a length-delimited one.
type pbField struct {
	num, wire int
	v         uint64
	data      []byte
}

// pbWalk calls fn for every top-level field of message b.
func pbWalk(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends the values of a repeated integer field, which the
// encoder may write packed or one element per field.
func pbUints(f pbField, out []uint64) ([]uint64, error) {
	switch f.wire {
	case 0:
		return append(out, f.v), nil
	case 2:
		for b := f.data; len(b) > 0; {
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return out, errProto
			}
			out, b = append(out, v), b[n:]
		}
		return out, nil
	}
	return out, errProto
}

type pbSample struct {
	locs  []uint64
	count uint64
}

type pbFunc struct{ name, file uint64 }

// cpuSamples reads a CPU profile and counts its samples per layer.
func cpuSamples(profile []byte) (map[string]uint64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		samples []pbSample
		locs    = map[uint64][]uint64{} // location -> function ids, innermost first
		funcs   = map[uint64]pbFunc{}
		strs    []string
	)
	err = pbWalk(raw, func(f pbField) error {
		switch {
		case f.num == 2 && f.wire == 2:
			var s pbSample
			var vals []uint64
			err := pbWalk(f.data, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = pbUints(g, s.locs)
				case 2:
					vals, err = pbUints(g, vals)
				}
				return err
			})
			if err != nil || len(vals) == 0 {
				return errProto
			}
			s.count = vals[0]
			samples = append(samples, s)
		case f.num == 4 && f.wire == 2:
			var id uint64
			var fns []uint64
			err := pbWalk(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4:
					return pbWalk(g.data, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs[id] = fns
		case f.num == 5 && f.wire == 2:
			var id uint64
			var fn pbFunc
			err := pbWalk(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					fn.name = g.v
				case 4:
					fn.file = g.v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = fn
		case f.num == 6 && f.wire == 2:
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}

	counts := map[string]uint64{}
	for _, s := range samples {
		layer := "runtime"
	walk:
		for _, loc := range s.locs {
			for _, id := range locs[loc] {
				fn := funcs[id]
				if l := layerOf(str(fn.name), str(fn.file)); l != "" {
					layer = l
					break walk
				}
			}
		}
		counts[layer] += s.count
	}
	return counts, nil
}

// cpuShares turns per-layer sample counts into shares of their total; every
// entry of cpuLayers is present.
func cpuShares(counts map[string]uint64) (map[string]float64, int) {
	var total uint64
	for _, c := range counts {
		total += c
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		}
	}
	return shares, int(total)
}

// layerOf names the layer a function belongs to, or "" for a frame outside
// the repository (runtime and standard library), which is charged to its
// nearest repository caller instead.
func layerOf(fn, file string) string {
	if strings.HasPrefix(fn, "main.") {
		return "benchmark"
	}
	if !strings.HasPrefix(fn, "repro/") {
		return ""
	}
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	rest, ok := strings.CutPrefix(pkg, "repro/internal/")
	if !ok {
		return "benchmark" // the benchmark package itself, under go test
	}
	switch top, _, _ := strings.Cut(rest, "/"); top {
	case "sim":
		if path.Base(file) == "shard.go" {
			return "sim.shard"
		}
		return "sim"
	case "fabric", "ibv", "xport", "ucx", "mpi", "cluster":
		return top
	case "core", "loggp", "ploggp":
		return "core"
	default:
		// Input generators and the trace recorder the benchmark calls.
		return "benchmark"
	}
}
