// Package units provides SI unit helpers, physical constants and
// engineering-notation formatting used throughout the mpsram library.
//
// All physical quantities in this repository are plain float64 values in
// base SI units (metres, ohms, farads, seconds, volts, amperes). The
// constants and helpers here exist to make literals in the higher layers
// readable: `26 * units.Nano` is a 26 nm line width.
package units

import (
	"fmt"
	"math"
)

// SI prefixes as multipliers on base units.
const (
	Tera  = 1e12
	Giga  = 1e9
	Mega  = 1e6
	Kilo  = 1e3
	Milli = 1e-3
	Micro = 1e-6
	Nano  = 1e-9
	Pico  = 1e-12
	Femto = 1e-15
	Atto  = 1e-18
)

// Physical constants.
const (
	// Eps0 is the vacuum permittivity in F/m.
	Eps0 = 8.8541878128e-12
	// RhoCuBulk is the bulk resistivity of copper at room temperature
	// in ohm·m. Scaled interconnects use a larger effective resistivity
	// (grain-boundary and surface scattering, barrier sharing); the
	// technology stack carries its own effective value.
	RhoCuBulk = 1.72e-8
	// BoltzmannQ is kT/q at 300 K in volts (thermal voltage).
	BoltzmannQ = 0.025852
)

// prefix maps exponent/3 to the SI prefix letter.
var prefixes = map[int]string{
	-6: "a", -5: "f", -4: "p", -3: "n", -2: "µ", -1: "m",
	0: "", 1: "k", 2: "M", 3: "G", 4: "T",
}

// Format renders v with an engineering (power-of-1000) SI prefix and the
// given unit suffix, e.g. Format(3.2e-13, "F") == "320.000fF".
func Format(v float64, unit string) string {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Sprintf("%g%s", v, unit)
	}
	e := int(math.Floor(math.Log10(math.Abs(v)) / 3))
	if e < -6 {
		e = -6
	}
	if e > 4 {
		e = 4
	}
	scaled := v / math.Pow(1000, float64(e))
	return fmt.Sprintf("%.3f%s%s", scaled, prefixes[e], unit)
}

// ApproxEqual reports whether a and b agree within relative tolerance rel
// (falling back to absolute tolerance abs when both are near zero).
func ApproxEqual(a, b, rel, abs float64) bool {
	d := math.Abs(a - b)
	if d <= abs {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= rel*m
}
