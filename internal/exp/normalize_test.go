package exp

import (
	"fmt"
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
	if canonical(got) != canonical(exp) {
		t.Fatalf("defaulted %q != explicit %q", canonical(got), canonical(exp))
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

// canonical renders p alone, as the run-key pre-image spells it.
func canonical(p Params) string { return string(AppendCanonicalParams(nil, p)) }

// TestCanonicalParamsDeterministic pins the frozen hashing rendering:
// sorted keys, kind-stable value spellings, insertion-order independence,
// appended after whatever dst already holds.
func TestCanonicalParamsDeterministic(t *testing.T) {
	a := Params{"b": 1, "a": 0.5, "c": "x,y", "d": true}
	b := Params{}
	b["d"] = true
	b["c"] = "x,y"
	b["a"] = 0.5
	b["b"] = 1
	want := `a=0.5,b=1,c="x,y",d=true`
	if got := canonical(a); got != want {
		t.Fatalf("canonical rendering drifted: %q != %q", got, want)
	}
	if canonical(a) != canonical(b) {
		t.Fatalf("insertion order leaked into canonical form")
	}
	if canonical(nil) != "" {
		t.Fatalf("nil params must render empty, got %q", canonical(nil))
	}
	if got := string(AppendCanonicalParams([]byte("params="), a)); got != "params="+want {
		t.Fatalf("appending after a prefix: %q", got)
	}
	// More names than the stack array holds still sort.
	many := Params{}
	for _, k := range []string{"j", "i", "h", "g", "f", "e", "d", "c", "b", "a"} {
		many[k] = len(k)
	}
	if got := canonical(many); got != "a=1,b=1,c=1,d=1,e=1,f=1,g=1,h=1,i=1,j=1" {
		t.Fatalf("ten names: %q", got)
	}
}

// TestCanonicalParamsFullPrecision: float values hash at full precision —
// two parameters differing past %.6g must produce different keys — and
// in the 'g' format's exponent form outside [1e-4, 1e6).
func TestCanonicalParamsFullPrecision(t *testing.T) {
	x := canonical(Params{"ol": 1.0 / 3.0})
	y := canonical(Params{"ol": 1.0/3.0 + 1e-12})
	if x == y {
		t.Fatalf("full-precision floats collapsed: %q", x)
	}
	if !strings.Contains(x, "0.3333333333333333") {
		t.Fatalf("float rendering drifted: %q", x)
	}
	if got := canonical(Params{"ol": 2.5e-7, "thk": 1e6}); got != "ol=2.5e-07,thk=1e+06" {
		t.Fatalf("exponent rendering drifted: %q", got)
	}
}

// TestCanonicalParamsRefusesUnknownKinds: a value of a kind coercion
// never produces has no canonical spelling, and rendering it panics
// rather than hash a spelling no normalized spec can have.
func TestCanonicalParamsRefusesUnknownKinds(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "param p has no canonical spelling for int32") {
			t.Fatalf("recovered %v", r)
		}
	}()
	AppendCanonicalParams(nil, Params{"p": int32(1)})
}
