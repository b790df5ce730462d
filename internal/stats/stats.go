// Package stats provides the small statistics and table-rendering helpers
// the benchmark harness uses to report results the way the paper does:
// speedups over the baseline, power-of-two size sweeps and aligned
// text/CSV tables.
package stats

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Speedup returns baseline/variant — how many times faster the variant is.
// It panics on a non-positive variant (a measurement bug, not a data
// condition).
func Speedup(baseline, variant time.Duration) float64 {
	if variant <= 0 {
		panic(fmt.Sprintf("stats: non-positive variant duration %v", variant))
	}
	return float64(baseline) / float64(variant)
}

// FormatBytes renders a byte count in the units the paper's axes use
// (KiB/MiB/GiB for exact powers, bytes otherwise).
func FormatBytes(n int) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGiB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Table accumulates rows and renders them as aligned text or CSV.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = fmtDuration(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// fmtDuration renders durations with µs precision for readability.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/1e6)
	default:
		return fmt.Sprintf("%.3fµs", float64(d)/1e3)
	}
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV (cells containing commas or quotes are
// quoted per RFC 4180).
func (t *Table) WriteCSV(w io.Writer) error {
	writeLine := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeLine(t.Headers); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeLine(row); err != nil {
			return err
		}
	}
	return nil
}

// PowersOfTwo returns the powers of two in [lo, hi] inclusive. It returns
// nil for lo < 1, where doubling would never leave lo, and stops before a
// doubling could overflow past hi.
func PowersOfTwo(lo, hi int) []int {
	if lo < 1 {
		return nil
	}
	var out []int
	for v := lo; v <= hi; v *= 2 {
		out = append(out, v)
		if v > hi/2 {
			break
		}
	}
	return out
}
