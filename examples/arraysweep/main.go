// Arraysweep: the Fig. 4 experiment end-to-end on the SPICE engine —
// worst-case read-time penalty versus array size for all three patterning
// options, printed as the series the paper plots.
//
// The experiment is dispatched through the workload registry
// (Study.Run("fig4")), which runs the sharded sweep engine underneath:
// one nominal transient per size, serving every option's penalty
// denominator, and one worst case per option and size, executed on a
// worker pool.
// The typed rows come back on the Result for custom rendering; the
// registry's own csv/md/json encoders are one res.Write call away.
package main

import (
	"fmt"
	"log"

	"mpsram/internal/core"
	"mpsram/internal/exp"
	"mpsram/internal/litho"
)

func main() {
	study, err := core.NewStudy()
	if err != nil {
		log.Fatal(err)
	}
	res, err := study.Run("fig4", nil)
	if err != nil {
		log.Fatal(err)
	}
	pts := res.Data.([]exp.Fig4Point)
	sizes := exp.PaperSizes

	// Re-shape the series into the penalty matrix the paper plots.
	tdp := map[litho.Option]map[int]float64{}
	tdnom := map[int]float64{}
	for _, p := range pts {
		if tdp[p.Option] == nil {
			tdp[p.Option] = map[int]float64{}
		}
		tdp[p.Option][p.N] = p.TdpPct
		tdnom[p.N] = p.TdNom
	}
	fmt.Printf("Worst-case td penalty vs array size (SPICE, %s):\n", study.Env.Proc.Name)
	fmt.Printf("%-8s", "option")
	for _, n := range sizes {
		fmt.Printf(" %10s", fmt.Sprintf("10x%d", n))
	}
	fmt.Println()
	for _, o := range litho.Options {
		fmt.Printf("%-8v", o)
		for _, n := range sizes {
			p, ok := tdp[o][n]
			if !ok {
				log.Fatalf("missing fig4 point %v n=%d", o, n)
			}
			fmt.Printf(" %+9.2f%%", p)
		}
		fmt.Println()
	}

	fmt.Println("\nNominal read time vs array size:")
	for _, n := range sizes {
		td, ok := tdnom[n]
		if !ok {
			log.Fatalf("missing nominal point n=%d", n)
		}
		fmt.Printf("  10x%-5d td = %8.2f ps\n", n, td*1e12)
	}
}
