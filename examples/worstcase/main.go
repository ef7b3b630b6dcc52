// Worstcase: run the corner study on a customized technology — a tighter
// metal1 pitch and a swept LE3 overlay budget — and watch how the
// patterning ranking responds. This is the "what if my fab's overlay
// control is better/worse" question the paper's conclusions hinge on.
package main

import (
	"fmt"
	"log"

	"mpsram/internal/core"
	"mpsram/internal/exp"
	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/tech"
)

func main() {
	// Overlay sweep on the stock N10 process: the paper's conclusion is
	// that LE3 needs ≤3 nm 3σ overlay to compete with SADP/EUV.
	fmt.Println("LE3 worst-case ΔCbl vs overlay budget (stock N10):")
	for _, ol := range []float64{2e-9, 3e-9, 5e-9, 7e-9, 8e-9} {
		study, err := core.NewStudy(core.WithOverlay(ol))
		if err != nil {
			log.Fatal(err)
		}
		wc, err := extract.WorstCase(study.Env.Proc, litho.LE3, study.Env.Cap)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  OL %.0fnm: ΔCbl %+7.2f%%  ΔRbl %+6.2f%%\n", ol*1e9, wc.CvarPct(), wc.RvarPct())
	}

	// Custom stack: a relaxed 64 nm pitch variant (e.g. a mid-level
	// metal) — MP variability softens as spacing grows.
	p := tech.N10()
	p.M1.Pitch = 64e-9
	p.M1.Width = 30e-9
	p.M1.Space = 34e-9
	p.SADP.Period = 128e-9
	p.SADP.MandrelWidth = 30e-9
	p.SADP.SpacerThk = 34e-9
	if err := p.Validate(); err != nil {
		log.Fatal(err)
	}
	study, err := core.NewStudy(core.WithProcess(p))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nRelaxed 64 nm pitch stack:")
	res, err := study.Run("table1", nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res.Data.([]exp.Table1Row) {
		fmt.Printf("  %-8v ΔCbl %+7.2f%%  ΔRbl %+6.2f%%\n", r.Option, r.CblPct, r.RblPct)
	}

	// Ablation: the crude plate+fringe capacitance model shifts absolute
	// numbers but preserves the LE3 ≫ EUV/SADP ranking.
	study2, err := core.NewStudy(core.WithCapModel(extract.PlateFringe{}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nStock N10 with the plate+fringe ablation model:")
	res2, err := study2.Run("table1", nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res2.Data.([]exp.Table1Row) {
		fmt.Printf("  %-8v ΔCbl %+7.2f%%  ΔRbl %+6.2f%%\n", r.Option, r.CblPct, r.RblPct)
	}
}
