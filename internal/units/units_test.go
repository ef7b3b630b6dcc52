package units

import (
	"strings"
	"testing"
)

func TestFormat(t *testing.T) {
	cases := []struct {
		v    float64
		unit string
		want string
	}{
		{3.2e-13, "F", "320.000fF"},
		{5.59e-12, "s", "5.590ps"},
		{2.9, "Ω", "2.900Ω"},
		{4.7e3, "Ω", "4.700kΩ"},
		{0, "F", "0F"},
	}
	for _, c := range cases {
		if got := Format(c.v, c.unit); got != c.want {
			t.Errorf("Format(%g,%q) = %q, want %q", c.v, c.unit, got, c.want)
		}
	}
}

func TestFormatNegative(t *testing.T) {
	got := Format(-1.5e-9, "s")
	if !strings.HasPrefix(got, "-1.500n") {
		t.Fatalf("Format(-1.5e-9) = %q", got)
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1.0, 1.0+1e-12, 1e-9, 0) {
		t.Fatal("tiny relative difference should be equal")
	}
	if ApproxEqual(1.0, 1.1, 1e-3, 0) {
		t.Fatal("10% difference should not be equal at 0.1% tolerance")
	}
	if !ApproxEqual(0, 1e-18, 1e-12, 1e-15) {
		t.Fatal("near-zero absolute tolerance failed")
	}
}
