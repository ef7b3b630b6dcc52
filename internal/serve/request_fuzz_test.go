package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mpsram/internal/core"
	"mpsram/internal/exp"
)

// Decoding an n-byte run request allocates at most requestAllocPerByte·n
// + requestAllocSlack bytes: the bound FuzzShardArtifact holds the
// artifact decoder to.
const (
	requestAllocPerByte = 64
	requestAllocSlack   = 16 << 10
)

// keyOracle hashes a normalized spec's run-key pre-image rendered with
// fmt and strings.Join: the reference core.RunSpec.Resolve's append-style
// renderer is held to (core's runspec_test.go keeps the same renderer
// beside the pinned keys).
func keyOracle(n core.RunSpec) string {
	keys := make([]string, 0, len(n.Params))
	for k := range n.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		var v string
		switch x := n.Params[k].(type) {
		case int:
			v = strconv.Itoa(x)
		case float64:
			v = strconv.FormatFloat(x, 'g', -1, 64)
		case bool:
			v = strconv.FormatBool(x)
		case string:
			v = strconv.Quote(x)
		default:
			v = fmt.Sprintf("%v", x)
		}
		parts[i] = k + "=" + v
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("mpsram-run|engine=%s|workload=%s|process=%s|seed=%d|samples=%d|params=%s",
		core.EngineVersion, n.Workload, n.Process, n.Seed, n.Samples, strings.Join(parts, ","))))
	return hex.EncodeToString(sum[:])
}

// FuzzRunRequest feeds arbitrary bytes to the POST /v1/runs decoding
// (decodeRunRequest, unknown fields refused), then Resolve, without
// executing the run. Nothing may panic; the decoding allocates within its
// bound (requestAllocPerByte); an accepted body is one JSON value
// (json.Valid); an accepted spec is a fixed point of Resolve with one
// key, the digest of the pre-image the fmt-based renderer spelled
// (keyOracle); and no accepted spec carries a parameter value outside
// the registry-wide ranges (1 ≤ n ≤ 2^53, finite ol ≥ 0 and thk ≥ 0, a
// non-empty sizes list that ParseSizes accepts).
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
		// Appended last, so the seeds above keep their numbers: float
		// spellings in both of the 'g' format's notations, then an n
		// past 2^53 and an ol past the largest float64.
		`{"workload":"ext","params":{"thk":1e6}}`,
		`{"workload":"fig5","params":{"ol":2.5e-7,"n":1024}}`,
		`{"workload":"mcspicenodes","params":{"ol":0.3333333333333333,"adaptive":true},"process":" n7 ","seed":-3,"samples":12}`,
		`{"workload":"fig5","params":{"n":9007199254740994}}`,
		`{"workload":"fig5","params":{"ol":1e309}}`,
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
		spec, key, err := raw.Resolve()
		if err != nil {
			return
		}
		if k, err := raw.Key(); err != nil || k != key {
			t.Fatalf("%s: Key %q (%v), Resolve %q", body, k, err, key)
		}
		again, k, err := spec.Resolve()
		if err != nil {
			t.Fatalf("%s: normalized spec %+v refused: %v", body, spec, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("%s: Normalize is not idempotent: %+v -> %+v", body, spec, again)
		}
		if k != key {
			t.Fatalf("%s: normalized spec keys to %q, want %q", body, k, key)
		}
		if want := keyOracle(spec); key != want {
			t.Fatalf("%s: key %s, but the pre-image renderer's oracle hashes to %s", body, key, want)
		}
		if n, ok := spec.Params["n"]; ok && (n.(int) < 1 || n.(int) > 1<<53) {
			t.Fatalf("%s: accepted n = %d", body, n)
		}
		for _, name := range []string{"ol", "thk"} {
			if v, ok := spec.Params[name]; ok && !(v.(float64) >= 0 && v.(float64) <= math.MaxFloat64) {
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

// FuzzSpecJSONRoundTrip holds the one input domain: a run key names only
// specs every front end can carry. It builds a RunSpec the way the CLI
// can, from a workload index, a mask of the parameters set, two bit
// patterns the parameters read by kind (int, float64 or bool; a string
// parameter takes str), a process name, a seed and a budget. For every
// spec Resolve accepts, the shard header and the POST /v1/runs body built
// from it both encode as JSON, and decoding each (json.Unmarshal of the
// header, decodeRunRequest of the body) resolves to the same key.
func FuzzSpecJSONRoundTrip(f *testing.F) {
	index := map[string]uint8{}
	for i, w := range exp.Workloads() {
		index[w.Name] = uint8(i)
	}
	for _, c := range []struct {
		workload  string
		set       uint8
		a, b      uint64
		str, proc string
		seed      int64
		samples   int
	}{
		{"fig5", 3, 64, math.Float64bits(5), "", " n7 ", 7, 300},
		{"fig5", 2, 64, math.Float64bits(1.0 / 3.0), "", "", 0, 0},
		{"ext", 3, 1024, math.Float64bits(1e6), "", "N5", -3, 12},
		{"mcspicex", 7, 1, 0, " 8, 16", "n10", 2015, 120},
		{"mcspice", 15, 16, 1, "16,64", "", 1, 4},
		{"mcspicenodes", 7, 8, math.Float64bits(2.5e-7), "", "", 0, 0},
		// Values no JSON front end can carry: +Inf budgets, and an int
		// past 2^53 that a float64 rounds to its even neighbour, in n and
		// in a test-only workload's x alike.
		{"fig5", 2, 0, math.Float64bits(math.Inf(1)), "", "", 0, 0},
		{"ext", 2, 0, math.Float64bits(math.Inf(1)), "", "", 0, 0},
		{"fig5", 1, 1<<53 + 1, 0, "", "", 0, 0},
		{"testcheap", 1, 1<<53 + 1, 0, "", "", 0, 0},
		// And a string that is not UTF-8, which JSON spells as U+FFFD:
		// the test-only workloads' tag takes any string.
		{"testslow", 1, 0, 0, "\xd8", "", 0, 0},
	} {
		f.Add(index[c.workload], c.set, c.a, c.b, c.str, c.proc, c.seed, c.samples)
	}
	f.Fuzz(func(t *testing.T, wi, set uint8, a, b uint64, str, proc string, seed int64, samples int) {
		ws := exp.Workloads()
		w := ws[int(wi)%len(ws)]
		p := exp.Params{}
		for i, ps := range w.Params {
			if set&(1<<i) == 0 {
				continue
			}
			bits := a
			if i%2 == 1 {
				bits = b
			}
			switch ps.Kind {
			case exp.IntParam:
				p[ps.Name] = int(bits)
			case exp.FloatParam:
				p[ps.Name] = math.Float64frombits(bits)
			case exp.BoolParam:
				p[ps.Name] = bits&1 == 1
			case exp.StringParam:
				p[ps.Name] = str
			}
		}
		spec := core.RunSpec{Workload: w.Name, Params: p, Process: proc, Seed: seed, Samples: samples}
		n, key, err := spec.Resolve()
		if err != nil {
			return
		}
		hdr, err := json.Marshal(core.ShardHeader{
			RunKey: key, EngineVersion: core.EngineVersion,
			Workload: n.Workload, Params: n.Params, Process: n.Process,
			Seed: n.Seed, Samples: n.Samples, ShardCount: 1,
		})
		if err != nil {
			t.Fatalf("%+v keys to %.12s, but its shard header does not encode: %v", n, key, err)
		}
		body, err := json.Marshal(runRequest{
			Workload: n.Workload, Params: n.Params, Process: n.Process,
			Seed: n.Seed, Samples: n.Samples,
		})
		if err != nil {
			t.Fatalf("%+v keys to %.12s, but its run request does not encode: %v", n, key, err)
		}
		var h core.ShardHeader
		if err := json.Unmarshal(hdr, &h); err != nil {
			t.Fatalf("shard header %s does not decode: %v", hdr, err)
		}
		hs := core.RunSpec{Workload: h.Workload, Params: h.Params, Process: h.Process, Seed: h.Seed, Samples: h.Samples}
		if k, err := hs.Key(); err != nil || k != key {
			t.Fatalf("%+v keys to %.12s, but its shard header %s keys to %.12s (%v)", n, key, hdr, k, err)
		}
		raw, err := decodeRunRequest(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("run request %s refused: %v", body, err)
		}
		if _, k, err := raw.Resolve(); err != nil || k != key {
			t.Fatalf("%+v keys to %.12s, but its run request %s keys to %.12s (%v)", n, key, body, k, err)
		}
	})
}
