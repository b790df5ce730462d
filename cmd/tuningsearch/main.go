// Command tuningsearch regenerates the brute-force tuning table of the
// paper's Section IV-B: the exhaustive sweep over (transport partitions,
// queue pairs) per (user partition count, message size) that took 23 hours
// on two Niagara nodes and seconds here.
//
// Usage:
//
//	tuningsearch -parts 4,32,128 -min 4096 -max 67108864 -o tuning.tbl
//	tuningsearch -j 8                        # sweep on 8 workers
//
// The sweep fans (parts, size) points across -j workers (default: all
// cores); each point is an independent deterministic simulation, so the
// table is byte-identical for any -j.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/stats"
	"repro/internal/tuning"
)

func main() {
	partsFlag := flag.String("parts", "4,16,32,128", "comma-separated user partition counts")
	minSize := flag.Int("min", 4096, "smallest aggregate message size (bytes)")
	maxSize := flag.Int("max", 64<<20, "largest aggregate message size (bytes)")
	warmup := flag.Int("warmup", 3, "warm-up iterations per candidate")
	iters := flag.Int("iters", 10, "measured iterations per candidate")
	jobs := flag.Int("j", 0, "parallel sweep workers (0 = all cores, 1 = serial)")
	out := flag.String("o", "", "output file (default stdout)")
	verbose := flag.Bool("v", false, "print progress")
	flag.Parse()

	var parts []int
	for _, f := range strings.Split(*partsFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			fmt.Fprintf(os.Stderr, "tuningsearch: bad -parts entry %q: %v\n", f, err)
			os.Exit(2)
		}
		parts = append(parts, v)
	}

	cfg := tuning.SearchConfig{
		UserParts: parts,
		Sizes:     stats.PowersOfTwo(*minSize, *maxSize),
		Warmup:    *warmup,
		Iters:     *iters,
		Workers:   *jobs,
	}
	if *verbose {
		cfg.Progress = func(p, s int) {
			fmt.Fprintf(os.Stderr, "searching %d partitions, %s\n", p, stats.FormatBytes(s))
		}
	}

	table, err := tuning.Search(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tuningsearch: %v\n", err)
		os.Exit(1)
	}
	var buf bytes.Buffer
	if err := tuning.WriteTable(&buf, table); err != nil {
		fmt.Fprintf(os.Stderr, "tuningsearch: %v\n", err)
		os.Exit(1)
	}
	writeOutput(*out, buf.String())
}

// writeOutput writes the serialized table with its header comment.
func writeOutput(path, text string) {
	w := os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tuningsearch: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	fmt.Fprintln(w, "# userParts bytes transport qps")
	if _, err := fmt.Fprint(w, text); err != nil {
		fmt.Fprintf(os.Stderr, "tuningsearch: %v\n", err)
		os.Exit(1)
	}
}
