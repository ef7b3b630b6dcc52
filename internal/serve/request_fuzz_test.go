package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"mpsram/internal/exp"
)

// Decoding an n-byte run request allocates at most requestAllocPerByte·n
// + requestAllocSlack bytes: the bound FuzzShardArtifact holds the
// artifact decoder to.
const (
	requestAllocPerByte = 64
	requestAllocSlack   = 16 << 10
)

// FuzzRunRequest feeds arbitrary bytes to the POST /v1/runs decoding
// (decodeRunRequest, unknown fields refused), then Normalize and Key,
// without executing the run. Nothing may panic; the decoding allocates
// within its bound (requestAllocPerByte); an accepted body is one JSON
// value (json.Valid); an accepted spec is a fixed point of Normalize with
// one key; and no accepted spec carries a
// parameter value outside the registry-wide ranges (n ≥ 1, ol ≥ 0,
// thk ≥ 0, a non-empty sizes list that ParseSizes accepts).
func FuzzRunRequest(f *testing.F) {
	for _, s := range []string{
		`{"workload":"fig5"}`,
		`{"workload":"fig5","params":{"n":32,"ol":5},"seed":7,"samples":300}`,
		`{"workload":" FIG5 ","process":" n7 "}`,
		`{"workload":"ext","params":{"thk":2}}`,
		`{"workload":"mcspice","params":{"n":16,"sizes":"16,64"},"samples":4}`,
		`{"workload":"mcspicex","params":{"sizes":" 8, 16"}}`,
		`{"workload":"table1"}`,
		// The refusals: out-of-range values, unknown names and fields.
		`{"workload":"fig5","params":{"n":-5}}`,
		`{"workload":"fig5","params":{"n":0}}`,
		`{"workload":"fig5","params":{"ol":-5}}`,
		`{"workload":"ext","params":{"thk":-2}}`,
		`{"workload":"mcspice","params":{"sizes":"16,16"}}`,
		`{"workload":"mcspicex","params":{"sizes":"16,x"}}`,
		`{"workload":"fig5","params":{"n":1.5}}`,
		`{"workload":"fig5","samples":-5}`,
		`{"workload":"fig5","fastseed":true}`,
		`{"workload":"table1","process":"N3"}`,
		`{not json`,
		`{"workload":"fig5"} garbage`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		raw, err := decodeRunRequest(bytes.NewReader(body))
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(requestAllocPerByte*len(body)+requestAllocSlack); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, want at most %d", len(body), got, bound)
		}
		if err != nil {
			return
		}
		if !json.Valid(body) {
			t.Fatalf("%q accepted but is not one JSON value", body)
		}
		spec, err := raw.Normalize()
		if err != nil {
			return
		}
		key, err := raw.Key()
		if err != nil {
			t.Fatalf("%s: Normalize accepted but Key refused: %v", body, err)
		}
		again, err := spec.Normalize()
		if err != nil {
			t.Fatalf("%s: normalized spec %+v refused: %v", body, spec, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("%s: Normalize is not idempotent: %+v -> %+v", body, spec, again)
		}
		if k, err := spec.Key(); err != nil || k != key {
			t.Fatalf("%s: normalized spec keys to %q (%v), want %q", body, k, err, key)
		}
		if n, ok := spec.Params["n"]; ok && n.(int) < 1 {
			t.Fatalf("%s: accepted n = %d", body, n)
		}
		for _, name := range []string{"ol", "thk"} {
			if v, ok := spec.Params[name]; ok && !(v.(float64) >= 0) {
				t.Fatalf("%s: accepted %s = %v", body, name, v)
			}
		}
		if s, ok := spec.Params["sizes"]; ok && s.(string) != "" {
			if _, err := exp.ParseSizes(s.(string)); err != nil {
				t.Fatalf("%s: accepted sizes %q: %v", body, s, err)
			}
		}
	})
}
