package exp

import (
	"strings"
	"testing"
)

// TestNormalizeParamsDefaultFill pins the cache-key prerequisite: an
// omitted parameter and an explicitly-spelled default normalize to the
// same map, and JSON-shaped values (float64 where the schema says int)
// coerce to the declared kind.
func TestNormalizeParamsDefaultFill(t *testing.T) {
	got, err := NormalizeParams("fig5", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int("n") != 64 || got.Float("ol") != 0 {
		t.Fatalf("defaults not filled: %v", got)
	}
	exp, err := NormalizeParams("fig5", Params{"n": float64(64), "ol": 0})
	if err != nil {
		t.Fatal(err)
	}
	if CanonicalParams(got) != CanonicalParams(exp) {
		t.Fatalf("defaulted %q != explicit %q", CanonicalParams(got), CanonicalParams(exp))
	}
	if _, ok := exp["n"].(int); !ok {
		t.Fatalf("float64 spelling not coerced to int: %T", exp["n"])
	}
}

// TestNormalizeParamsErrors keeps the valid-names error contract on the
// exported surface (the serve layer returns these texts verbatim as 400
// bodies).
func TestNormalizeParamsErrors(t *testing.T) {
	if _, err := NormalizeParams("fig5", Params{"bogus": 1}); err == nil ||
		!strings.Contains(err.Error(), "valid: n, ol") {
		t.Fatalf("unknown param error drifted: %v", err)
	}
	if _, err := NormalizeParams("nope", nil); err == nil ||
		!strings.Contains(err.Error(), "registered:") {
		t.Fatalf("unknown workload error drifted: %v", err)
	}
	if _, err := NormalizeParams("fig5", Params{"n": 1.5}); err == nil ||
		!strings.Contains(err.Error(), "not an integer") {
		t.Fatalf("coercion error drifted: %v", err)
	}
}

// TestCanonicalParamsDeterministic pins the frozen hashing rendering:
// sorted keys, kind-stable value spellings, insertion-order independence.
func TestCanonicalParamsDeterministic(t *testing.T) {
	a := Params{"b": 1, "a": 0.5, "c": "x,y", "d": true}
	b := Params{}
	b["d"] = true
	b["c"] = "x,y"
	b["a"] = 0.5
	b["b"] = 1
	want := `a=0.5,b=1,c="x,y",d=true`
	if got := CanonicalParams(a); got != want {
		t.Fatalf("canonical rendering drifted: %q != %q", got, want)
	}
	if CanonicalParams(a) != CanonicalParams(b) {
		t.Fatalf("insertion order leaked into canonical form")
	}
	if CanonicalParams(nil) != "" {
		t.Fatalf("nil params must render empty, got %q", CanonicalParams(nil))
	}
}

// TestCanonicalParamsFullPrecision: float values hash at full precision —
// two parameters differing past %.6g must produce different keys.
func TestCanonicalParamsFullPrecision(t *testing.T) {
	x := CanonicalParams(Params{"ol": 1.0 / 3.0})
	y := CanonicalParams(Params{"ol": 1.0/3.0 + 1e-12})
	if x == y {
		t.Fatalf("full-precision floats collapsed: %q", x)
	}
	if !strings.Contains(x, "0.3333333333333333") {
		t.Fatalf("float rendering drifted: %q", x)
	}
}
