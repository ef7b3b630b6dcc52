// Quickstart: extract the N10 bit line, inspect the per-cell parasitics,
// run the Table I worst-case search through the workload registry, and
// estimate read times with the paper's analytical formula — no SPICE run
// involved.
package main

import (
	"fmt"
	"log"
	"os"

	"mpsram/internal/core"
	"mpsram/internal/exp"
	"mpsram/internal/litho"
	"mpsram/internal/report"
	"mpsram/internal/sram"
	"mpsram/internal/units"
)

func main() {
	study, err := core.NewStudy()
	if err != nil {
		log.Fatal(err)
	}

	// Per-cell bit-line parasitics on the nominal geometry.
	nom, err := sram.NominalParasitics(study.Env.Proc, study.Env.Cap)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("N10 bit line, per cell:")
	fmt.Println("  Rbl =", units.Format(nom.Rbl, "Ω"))
	fmt.Println("  Cbl =", units.Format(nom.Cbl, "F"))

	// Table I through the registry: one Run call returns the paper-style
	// text, the machine-readable tables and the typed rows at once.
	res, err := study.Run("table1", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(res.Text())

	// The same result as machine-readable JSON — every workload shares
	// this rendering path (csv and md work identically).
	fmt.Println("\nThe same rows as JSON:")
	if err := res.Write(os.Stdout, report.FormatJSON); err != nil {
		log.Fatal(err)
	}

	// The analytical read-time model (paper eq. 4).
	m, err := study.Model()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nAnalytical read-time estimates (formula, not SPICE):")
	for _, n := range exp.PaperSizes {
		fmt.Printf("  10x%-5d tdnom = %s\n", n, units.Format(m.TdNom(n), "s"))
	}

	// Penalty of the LE3 worst corner across sizes, from the typed rows.
	rows := res.Data.([]exp.Table1Row)
	var le3 exp.Table1Row
	for _, r := range rows {
		if r.Option == litho.LE3 {
			le3 = r
		}
	}
	rvar := 1 + le3.RblPct/100
	cvar := 1 + le3.CblPct/100
	fmt.Println("\nLE3 worst-corner penalty by array size (formula):")
	for _, n := range exp.PaperSizes {
		fmt.Printf("  10x%-5d tdp = %+.2f%%\n", n, m.TdpPct(n, rvar, cvar))
	}
}
