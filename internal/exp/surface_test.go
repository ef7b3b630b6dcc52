package exp

import (
	"strconv"
	"testing"

	"mpsram/internal/litho"
	"mpsram/internal/mc"
)

// TestTableIVShape is the Table IV reproduction gate.
func TestTableIVShape(t *testing.T) {
	e := DefaultEnv()
	e.MC = mc.Config{Samples: 4000, Seed: 7}
	rows, err := Table4(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("row count %d", len(rows))
	}
	sig := map[string]float64{}
	for i, r := range rows {
		if len(r.Cells) != 1 || r.Cells[0].N != 64 || r.Cells[0].Sigma <= 0 {
			t.Fatalf("row %d: cells %+v", i, r.Cells)
		}
		key := r.Option.String()
		if r.Option == litho.LE3 {
			key = key + ":" + strconv.Itoa(int(r.OL*1e9))
		}
		sig[key] = r.Cells[0].Sigma
	}
	// σ(LE3) strictly increases with the overlay budget.
	if !(sig["LELELE:3"] < sig["LELELE:5"] && sig["LELELE:5"] < sig["LELELE:7"] &&
		sig["LELELE:7"] < sig["LELELE:8"]) {
		t.Fatalf("LE3 sigma not monotone in OL: %+v", sig)
	}
	// σ(LE3 @8nm) at least 2× σ(SADP) (paper: 0.753 vs 0.317).
	if sig["LELELE:8"] < 2*sig["SADP"] {
		t.Fatalf("LE3@8nm %.3f not ≥ 2× SADP %.3f", sig["LELELE:8"], sig["SADP"])
	}
	// SADP is the tightest distribution.
	if !(sig["SADP"] < sig["EUV"]) {
		t.Fatalf("SADP %.3f not < EUV %.3f", sig["SADP"], sig["EUV"])
	}
	// Tight-OL LE3 reaches the EUV class (paper: 0.414 ≈ 0.415).
	ratio := sig["LELELE:3"] / sig["EUV"]
	if ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("LE3@3nm/EUV ratio %.2f outside comparable band", ratio)
	}
}

// TestSigmaSurfaceAgreesWithSweep: Table IV is the one-size surface, and
// the surface shares one stream across sizes, so a surface at n=64 alone
// must equal the n=64 column of a three-size surface exactly.
func TestSigmaSurfaceAgreesWithSweep(t *testing.T) {
	e := DefaultEnv()
	e.MC = mc.Config{Samples: 1500, Seed: 9}
	m, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := e.sigmaSurface(e.Proc, m, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	surf, err := e.sigmaSurface(e.Proc, m, []int{16, 64, 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(surf) != len(sweep) {
		t.Fatalf("row count %d vs %d", len(surf), len(sweep))
	}
	for i, row := range surf {
		if row.Option != sweep[i].Option || row.OL != sweep[i].OL {
			t.Fatalf("row %d config mismatch", i)
		}
		if len(row.Cells) != 3 || row.Cells[1].N != 64 {
			t.Fatalf("row %d cells %+v", i, row.Cells)
		}
		if row.Cells[1] != sweep[i].Cells[0] {
			t.Fatalf("row %d: surface %+v vs one-size surface %+v", i, row.Cells[1], sweep[i].Cells[0])
		}
		// tdp spread grows with the bit line: σ ordering across sizes.
		if !(row.Cells[0].Sigma > 0 && row.Cells[2].Sigma > 0) {
			t.Fatalf("row %d: nonpositive sigma", i)
		}
	}
}
