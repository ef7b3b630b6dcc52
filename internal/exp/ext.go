// Extension experiments beyond the paper's evaluation: the LE2 (LELE)
// double-patterning option, the metal-thickness (etch/CMP) variability
// source, and the write-path penalty. DESIGN.md §5 lists these as the
// ablations/extensions this reproduction adds.
package exp

import (
	"fmt"
	"strings"

	"mpsram/internal/extract"
	"mpsram/internal/litho"
	"mpsram/internal/sram"
)

// ExtTable1 runs the Table I worst-case search over all patterning
// options including LE2, optionally with the thickness source enabled
// (thk3sigma > 0).
func ExtTable1(e Env, thk3sigma float64) ([]Table1Row, error) {
	p := e.Proc
	p.Var.Thk3Sigma = thk3sigma
	var rows []Table1Row
	for _, o := range litho.AllOptions {
		wc, err := extract.WorstCase(p, o, e.Cap)
		if err != nil {
			return nil, fmt.Errorf("ext-table1 %v: %w", o, err)
		}
		rows = append(rows, Table1Row{
			Option:  o,
			Corner:  litho.CornerString(p, o, wc.Corner),
			CblPct:  wc.CvarPct(),
			RblPct:  wc.RvarPct(),
			RvssPct: (wc.Ratios.RvssVar - 1) * 100,
		})
	}
	return rows, nil
}

// FormatExtTable1 renders the extension corner study.
func FormatExtTable1(rows []Table1Row, thk3sigma float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: worst-case variability, all options")
	if thk3sigma > 0 {
		fmt.Fprintf(&b, " (+ %.1fnm 3σ thickness)", thk3sigma*1e9)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-8s %-52s %10s %10s\n", "option", "worst corner", "ΔCbl", "ΔRbl")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8v %-52s %+9.2f%% %+9.2f%%\n", r.Option, r.Corner, r.CblPct, r.RblPct)
	}
	return b.String()
}

// WritePenaltyRow is one option's write-path impact.
type WritePenaltyRow struct {
	Option     litho.Option
	N          int
	TFlipNom   float64
	TFlipWorst float64
	PenaltyPct float64
}

// WritePenalty measures the worst-corner write-time penalty per option at
// one array size — the extension showing MP variability also reaches the
// write path. The nominal write does not depend on the option, so it runs
// once.
func WritePenalty(e Env, n int) ([]WritePenaltyRow, error) {
	nom, err := sram.NominalParasitics(e.Proc, e.Cap)
	if err != nil {
		return nil, err
	}
	colN, err := sram.BuildWriteColumn(e.Proc, n, nom, e.Build)
	if err != nil {
		return nil, err
	}
	wrN, err := colN.MeasureWriteTime(nom, e.Sim)
	if err != nil {
		return nil, fmt.Errorf("write penalty nominal: %w", err)
	}
	var rows []WritePenaltyRow
	for _, o := range litho.Options {
		wc, err := extract.WorstCase(e.Proc, o, e.Cap)
		if err != nil {
			return nil, err
		}
		scaled := nom.Scale(wc.Ratios)
		colW, err := sram.BuildWriteColumn(e.Proc, n, scaled, e.Build)
		if err != nil {
			return nil, err
		}
		wrW, err := colW.MeasureWriteTime(scaled, e.Sim)
		if err != nil {
			return nil, fmt.Errorf("write penalty %v worst: %w", o, err)
		}
		rows = append(rows, WritePenaltyRow{
			Option:     o,
			N:          n,
			TFlipNom:   wrN.TFlip,
			TFlipWorst: wrW.TFlip,
			PenaltyPct: (wrW.TFlip/wrN.TFlip - 1) * 100,
		})
	}
	return rows, nil
}

// FormatWritePenalty renders the write-path extension table.
func FormatWritePenalty(rows []WritePenaltyRow) string {
	var b strings.Builder
	b.WriteString("Extension: worst-case write-time penalty\n")
	fmt.Fprintf(&b, "%-8s %8s %12s %12s %10s\n", "option", "array", "tflip_nom", "tflip_wc", "penalty")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8v 10x%-5d %10.2fps %10.2fps %+9.2f%%\n",
			r.Option, r.N, r.TFlipNom*1e12, r.TFlipWorst*1e12, r.PenaltyPct)
	}
	return b.String()
}
