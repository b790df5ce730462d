// Package loggp defines the LogGP network-cost parameterization used
// throughout this repository: wire latency L, sender and receiver CPU
// overheads o_s and o_r, the minimum inter-message gap g, and the per-byte
// cost G (Alexandrov et al., JPDC 1997).
//
// Two distinct parameter sets appear in the reproduction, mirroring the
// paper's setup:
//
//   - the *fabric truth*: the costs the simulated InfiniBand network
//     actually charges (internal/fabric), and
//   - the *measured* parameters fed to the PLogGP model, obtained by running
//     the Netgauge-equivalent (internal/netgauge) over the MPI transport —
//     just as the paper measured through Open MPI + UCX because Netgauge's
//     raw InfiniBand module did not work on Niagara.
//
// The gap between the two is a feature, not a bug: the paper discusses
// exactly this model-vs-reality discrepancy in Section V-B1.
package loggp

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Params is a LogGP parameter set. G is expressed in nanoseconds per byte;
// all other parameters are durations.
type Params struct {
	// L is the end-to-end wire latency for the first byte.
	L time.Duration
	// Os is the sender CPU overhead per message.
	Os time.Duration
	// Or is the receiver CPU overhead per message.
	Or time.Duration
	// Gap is the minimum time between consecutive message injections (g).
	Gap time.Duration
	// G is the per-byte transmission cost in nanoseconds per byte.
	G float64
}

// Validate reports an error if any parameter is negative or G is
// non-positive.
func (p Params) Validate() error {
	switch {
	case p.L < 0:
		return fmt.Errorf("loggp: negative L %v", p.L)
	case p.Os < 0:
		return fmt.Errorf("loggp: negative Os %v", p.Os)
	case p.Or < 0:
		return fmt.Errorf("loggp: negative Or %v", p.Or)
	case p.Gap < 0:
		return fmt.Errorf("loggp: negative Gap %v", p.Gap)
	case p.G <= 0:
		return fmt.Errorf("loggp: non-positive G %v", p.G)
	}
	return nil
}

// ByteTime returns the wire occupancy of n bytes: n*G.
func (p Params) ByteTime(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(float64(n) * p.G)
}

// SendTime returns the LogGP end-to-end time for a single k-byte message:
// o_s + (k-1)G + L + o_r.
func (p Params) SendTime(k int) time.Duration {
	body := 0
	if k > 0 {
		body = k - 1
	}
	return p.Os + p.ByteTime(body) + p.L + p.Or
}

// MsgGap returns the sender-side spacing between back-to-back messages:
// max(g, o_s, o_r), the term the paper's two-partition formula uses.
func (p Params) MsgGap() time.Duration {
	m := p.Gap
	if p.Os > m {
		m = p.Os
	}
	if p.Or > m {
		m = p.Or
	}
	return m
}

// TrainTime returns the LogGP time to send n back-to-back messages of k
// bytes each: o_s + n*G(k-1) + (n-1)*max(g, o_s, o_r) + L + o_r. With n=2
// this is exactly the paper's Figure 2 formula.
func (p Params) TrainTime(n, k int) time.Duration {
	if n <= 0 {
		return 0
	}
	body := 0
	if k > 0 {
		body = k - 1
	}
	return p.Os + time.Duration(n)*p.ByteTime(body) +
		time.Duration(n-1)*p.MsgGap() + p.L + p.Or
}

// Bandwidth returns the asymptotic bandwidth in bytes per second implied
// by G.
func (p Params) Bandwidth() float64 { return 1e9 / p.G }

func (p Params) String() string {
	return fmt.Sprintf("L=%v os=%v or=%v g=%v G=%.4fns/B (%.2f GB/s)",
		p.L, p.Os, p.Or, p.Gap, p.G, p.Bandwidth()/1e9)
}

// NiagaraMeasured returns the MPI-transport-measured parameter set used as
// input to the PLogGP model, shaped like the paper's Netgauge-over-Open-MPI
// measurements on Niagara. The o_r value reflects per-message completion
// processing through the full MPI progress path (not a bare CQE poll),
// which is what Netgauge's MPI module observes.
func NiagaraMeasured() Params {
	return Params{
		L:   1300 * time.Nanosecond,
		Os:  1800 * time.Nanosecond,
		Or:  17 * time.Microsecond,
		Gap: 2500 * time.Nanosecond,
		G:   0.090, // ~11.1 GB/s effective
	}
}

// Table maps message sizes to parameter sets, as produced by Netgauge-style
// measurement sweeps. Lookups return the entry for the largest size not
// exceeding the query (or the smallest entry for queries below the range).
type Table struct {
	sizes  []int
	params map[int]Params
}

// NewTable returns an empty parameter table.
func NewTable() *Table {
	return &Table{params: make(map[int]Params)}
}

// Set records the parameter set measured at the given message size.
func (t *Table) Set(size int, p Params) {
	if size <= 0 {
		panic("loggp: non-positive size in Table.Set")
	}
	if _, ok := t.params[size]; !ok {
		t.sizes = append(t.sizes, size)
		sort.Ints(t.sizes)
	}
	t.params[size] = p
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.sizes) }

// Sizes returns the measured sizes in ascending order.
func (t *Table) Sizes() []int {
	out := make([]int, len(t.sizes))
	copy(out, t.sizes)
	return out
}

// Lookup returns the parameters for the largest measured size not exceeding
// size; queries below the smallest entry return the smallest entry. The
// boolean is false for an empty table.
func (t *Table) Lookup(size int) (Params, bool) {
	if len(t.sizes) == 0 {
		return Params{}, false
	}
	i := sort.SearchInts(t.sizes, size+1) - 1
	if i < 0 {
		i = 0
	}
	return t.params[t.sizes[i]], true
}

// WriteTo serializes the table as one line per entry:
// "size L os or g G" with durations in nanoseconds.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, s := range t.sizes {
		p := t.params[s]
		n, err := fmt.Fprintf(w, "%d %d %d %d %d %.6f\n",
			s, p.L.Nanoseconds(), p.Os.Nanoseconds(), p.Or.Nanoseconds(),
			p.Gap.Nanoseconds(), p.G)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Packets returns the number of MTU-sized packets needed for n bytes.
// Zero-byte messages still consume one packet (headers travel).
func Packets(n, mtu int) int {
	if mtu <= 0 {
		panic("loggp: non-positive MTU")
	}
	if n <= 0 {
		return 1
	}
	return (n + mtu - 1) / mtu
}
