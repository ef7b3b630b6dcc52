// Montecarlo: reproduce the paper's Fig. 5 / Table IV flow — Monte-Carlo
// sampling of process variation through the fast analytical model — with
// both experiments dispatched through the workload registry, and print
// the tdp distributions as ASCII histograms.
package main

import (
	"fmt"
	"log"

	"mpsram/internal/core"
	"mpsram/internal/exp"
	"mpsram/internal/litho"
	"mpsram/internal/mc"
)

func main() {
	study, err := core.NewStudy(core.WithMC(mc.Config{Samples: 20000, Seed: 7}))
	if err != nil {
		log.Fatal(err)
	}

	// Fig. 5 at the paper's operating point: 8 nm 3σ overlay, n = 64.
	// The parameters are schema-validated — a typo'd name or a wrong
	// type errors with the valid schema instead of being ignored.
	f5, err := study.Run("fig5", exp.Params{"n": 64, "ol": 8.0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(f5.Text())

	// Table IV: σ per option and overlay budget.
	t4, err := study.Run("table4", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(t4.Text())

	// The ratio the paper's conclusion quotes: LE3 at 8 nm vs SADP,
	// computed from the typed rows the Result carries.
	var le38, sadp float64
	for _, r := range t4.Data.([]exp.SigmaSurfaceRow) {
		if r.Option == litho.LE3 && r.OL == 8e-9 {
			le38 = r.Cells[0].Sigma
		}
		if r.Option == litho.SADP {
			sadp = r.Cells[0].Sigma
		}
	}
	fmt.Printf("\nσ(LE3 @8nm) / σ(SADP) = %.2f (paper: ~2.4x)\n", le38/sadp)
}
