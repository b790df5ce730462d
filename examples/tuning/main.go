// Tuning: compares the two ways of choosing an aggregation scheme that the
// paper studies — the brute-force tuning table (Section IV-B) and the
// PLogGP model (Section IV-C) — on the same configuration, then shows how
// closely the cheap model tracks the exhaustive search. Run with:
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"log"
	"time"

	"repro/partib"
)

func main() {
	const userParts = 32
	sizes := []int{128 << 10, 1 << 20, 8 << 20}

	// The exhaustive search (the paper's took 23 hours on two nodes; the
	// simulator's takes seconds).
	fmt.Println("running brute-force tuning search...")
	table, err := partib.SearchTuningTable(partib.TuningSearchConfig{
		UserParts: []int{userParts},
		Sizes:     sizes,
		Warmup:    2,
		Iters:     5,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The model's picks, from the same measured LogGP parameters the
	// paper fed it.
	fmt.Printf("\n%-8s  %-22s  %-18s\n", "size", "tuning table (T, QPs)", "PLogGP model (T)")
	for _, s := range sizes {
		val, ok := table.Lookup(userParts, s)
		if !ok {
			log.Fatalf("no tuning entry for %d bytes", s)
		}
		model, err := partib.OptimalTransport(s, userParts, 4*time.Millisecond)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s  T=%-3d QPs=%-12d  T=%-3d\n", fmtBytes(s), val.Transport, val.QPs, model)
	}

	// Netgauge-style measurement through the MPI transport, as the paper
	// collected its model inputs.
	measured, err := partib.MeasureLogGP()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nLogGP measured through the MPI transport: %v\n", measured)
	fmt.Printf("model parameter set used by the aggregator: %v\n", partib.NiagaraParams())
	fmt.Println("\n(The two differ — measurement through a software stack versus the")
	fmt.Println("model's calibrated inputs — which is the discrepancy the paper")
	fmt.Println("discusses in Section V-B1.)")
}

func fmtBytes(n int) string {
	if n%(1<<20) == 0 {
		return fmt.Sprintf("%dMiB", n>>20)
	}
	return fmt.Sprintf("%dKiB", n>>10)
}
