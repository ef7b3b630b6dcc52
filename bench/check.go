package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"mpsram/internal/exp"
	"mpsram/internal/report"
)

// pinSeed is the run seed whose first job's rendered JSON is pinned.
const pinSeed = 2015

// pins holds the SHA-256 of the rendered JSON tables of each Monte-Carlo
// workload's first job at pinSeed — the bytes `mpvar -format json`
// prints for the same run:
//
//	mpvar -samples 8 -seed 2015 -n 64 -format json mcspice | sha256sum
//	mpvar -samples 50000 -seed 2015 -format json fig5 | sha256sum
//
// They move only when the numerics move — the same event that
// regenerates the goldens under internal/exp/testdata/golden and bumps
// core.EngineVersion.
var pins = map[string]string{
	"spicemc":     "36791e1e05627e66e65441dfda89e84f6db8be830dae3f618906f975a374f2d5",
	"analytic-mc": "f2b2155630be1d242dddb1b2ae73f73883b81bc161c426ecef592983bc928ca0",
}

// goldenDir holds the committed CSV goldens spicesweep is checked
// against, relative to the repository root.
const goldenDir = "internal/exp/testdata/golden"

// spiceGoldens are the goldens of the spicetables workload's three
// tables, in the order the workload emits them.
var spiceGoldens = []string{"fig4.csv", "table2.csv", "table3.csv"}

func readGoldens(root string) ([][]byte, error) {
	out := make([][]byte, len(spiceGoldens))
	for i, name := range spiceGoldens {
		b, err := os.ReadFile(filepath.Join(root, goldenDir, name))
		if err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
		out[i] = b
	}
	return out, nil
}

// checkGoldens compares each table's CSV rendering with its golden,
// byte for byte.
func checkGoldens(tables []*report.Table, goldens [][]byte) error {
	if len(tables) != len(goldens) {
		return fmt.Errorf("golden: %d tables for %d goldens", len(tables), len(goldens))
	}
	for i, t := range tables {
		var buf bytes.Buffer
		if err := t.Write(&buf, report.FormatCSV); err != nil {
			return err
		}
		if !bytes.Equal(buf.Bytes(), goldens[i]) {
			return fmt.Errorf("golden: %s differs from %s", t.Title, spiceGoldens[i])
		}
	}
	return nil
}

// checkPin compares a rendered body's SHA-256 with the pin for
// workload. The pin applies only to the first job at pinSeed.
func checkPin(pins map[string]string, workload string, body []byte) error {
	want, ok := pins[workload]
	if !ok {
		return fmt.Errorf("pin: no digest pinned for %s", workload)
	}
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != want {
		return fmt.Errorf("pin: %s at seed %d renders sha256 %s, pinned %s", workload, pinSeed, got, want)
	}
	return nil
}

// checkSummary requires a finite mean and a finite, positive σ.
func checkSummary(what string, mean, std float64) error {
	if math.IsNaN(mean) || math.IsInf(mean, 0) || math.IsNaN(std) || math.IsInf(std, 0) || std <= 0 {
		return fmt.Errorf("%s: summary mean %g σ %g is not finite with σ > 0", what, mean, std)
	}
	return nil
}

// checkSpiceMC checks every SPICE-MC stream: accepted plus rejected
// draws make up the budget, and each summary is finite with σ > 0. It
// returns the rejected draws.
func checkSpiceMC(rows []exp.SpiceMCRow, samples int) (rejected int, err error) {
	if len(rows) == 0 {
		return 0, fmt.Errorf("mcspice: no rows")
	}
	for _, r := range rows {
		what := fmt.Sprintf("mcspice %v n=%d", r.Option, r.N)
		if r.Summary.N+r.Rejected != samples {
			return 0, fmt.Errorf("%s: %d accepted + %d rejected != %d draws", what, r.Summary.N, r.Rejected, samples)
		}
		if err := checkSummary(what, r.Summary.Mean, r.Summary.Std); err != nil {
			return 0, err
		}
		rejected += r.Rejected
	}
	return rejected, nil
}

// checkFig5 checks every Fig. 5 stream: a non-empty accepted set within
// the budget (the rest are the rejected draws) and a finite summary with
// σ > 0. It returns the rejected draws.
func checkFig5(rows []exp.Fig5Result, samples int) (rejected int, err error) {
	if len(rows) == 0 {
		return 0, fmt.Errorf("fig5: no rows")
	}
	for _, r := range rows {
		what := fmt.Sprintf("fig5 %v", r.Option)
		if r.Summary.N < 1 || r.Summary.N > samples {
			return 0, fmt.Errorf("%s: %d accepted of %d draws", what, r.Summary.N, samples)
		}
		if r.Hist == nil {
			return 0, fmt.Errorf("%s: no histogram", what)
		}
		if err := checkSummary(what, r.Summary.Mean, r.Summary.Std); err != nil {
			return 0, err
		}
		rejected += samples - r.Summary.N
	}
	return rejected, nil
}
