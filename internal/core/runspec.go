// RunSpec: the canonical identity of one deterministic experiment
// execution, and the run-key hashing behind the serve layer's
// content-addressed result cache. Every engine in this repository is
// bit-deterministic in (workload, parameters, seed, sample budget,
// process) — worker counts never change results — so those
// fields, plus an engine version that moves when the numerics move, ARE
// the identity of a result. Two specs with equal keys produce
// byte-identical rendered output.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"mpsram/internal/exp"
	"mpsram/internal/mc"
	"mpsram/internal/tech"
)

// EngineVersion names the current bit-level behaviour of the execution
// engines. It is part of every run key: bump it whenever a change alters
// numeric results (i.e. whenever the golden CSVs under
// internal/exp/testdata/golden are regenerated with different values),
// so stale cached results age out by key instead of being served as
// current. Pure refactors that keep the goldens byte-identical must NOT
// bump it — cache continuity across deploys is the point.
const EngineVersion = "v1"

// DefaultSeed is the repository-wide Monte-Carlo seed (the paper year);
// a RunSpec with Seed 0 normalizes to it, mirroring the CLI default.
const DefaultSeed = 2015

// DefaultSamples is the analytic Monte-Carlo budget used when neither
// the spec nor the workload's budget hint chooses one.
const DefaultSamples = 10000

// RunSpec identifies one deterministic workload execution. The zero
// value of every optional field means "the default": empty Process is
// the registry's N10, Seed 0 is DefaultSeed, Samples 0 adopts the
// workload's Hints.Samples budget (or DefaultSamples without one), and a
// nil Params map takes every schema default. Worker counts are absent on
// purpose — results are bit-identical for any worker count, so they are
// execution detail, not identity.
type RunSpec struct {
	Workload string
	Params   exp.Params
	Process  string
	Seed     int64
	Samples  int
}

// Normalize resolves the spec to its canonical form: the workload name
// validated against the registry, parameters schema-coerced and
// default-filled (exp.NormalizeParams), the process name trimmed,
// case-folded and replaced by the registry's canonical spelling, and the
// seed and sample budget defaulted (a negative budget is refused, not
// defaulted). Two specs that denote the same run normalize to equal
// specs; errors carry the registries' valid-names text so HTTP handlers
// can surface them verbatim.
func (s RunSpec) Normalize() (RunSpec, error) {
	out := s
	w, err := exp.LookupWorkload(strings.TrimSpace(s.Workload))
	if err != nil {
		return RunSpec{}, err
	}
	out.Workload = w.Name
	if out.Params, err = exp.NormalizeParams(w.Name, s.Params); err != nil {
		return RunSpec{}, err
	}
	name := strings.TrimSpace(s.Process)
	if name == "" {
		// DefaultEnv's primary process — the paper's N10 preset.
		name = tech.N10().Name
	}
	proc, err := tech.Default().Lookup(name)
	if err != nil {
		return RunSpec{}, err
	}
	out.Process = proc.Name
	if out.Seed == 0 {
		out.Seed = DefaultSeed
	}
	if out.Samples < 0 {
		return RunSpec{}, fmt.Errorf("core: samples must not be negative, got %d (0 = the workload's budget)", out.Samples)
	}
	if out.Samples == 0 {
		if w.Hints.Samples > 0 {
			out.Samples = w.Hints.Samples
		} else {
			out.Samples = DefaultSamples
		}
	}
	return out, nil
}

// Resolve normalizes the spec and returns it with its content address:
// the SHA-256 hex digest of the normalized spec's frozen pre-image
// (appendKeyPreimage). Equal keys guarantee byte-identical results (same
// engines, same inputs, same PRNG stream), which is the whole contract
// the serve layer's result cache and single-flight dedup rest on. It is
// the one pass a caller that needs both the spec and its key makes: the
// pre-image is rendered into a stack buffer and hashed there, so the
// returned key is the only allocation beyond Normalize's.
func (s RunSpec) Resolve() (RunSpec, string, error) {
	n, err := s.Normalize()
	if err != nil {
		return RunSpec{}, "", err
	}
	var buf [256]byte
	sum := sha256.Sum256(n.appendKeyPreimage(buf[:0]))
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return n, string(key[:]), nil
}

// appendKeyPreimage appends a normalized spec's key pre-image to dst:
//
//	mpsram-run|engine=<EngineVersion>|workload=<name>|process=<name>|seed=<seed>|samples=<budget>|params=<exp.AppendCanonicalParams>
//
// The format is frozen: changing a byte moves every run id, cache entry
// and shard artifact's key (TestRunSpecKeyPinned).
func (s RunSpec) appendKeyPreimage(dst []byte) []byte {
	dst = append(dst, "mpsram-run|engine="+EngineVersion+"|workload="...)
	dst = append(dst, s.Workload...)
	dst = append(dst, "|process="...)
	dst = append(dst, s.Process...)
	dst = append(dst, "|seed="...)
	dst = strconv.AppendInt(dst, s.Seed, 10)
	dst = append(dst, "|samples="...)
	dst = strconv.AppendInt(dst, int64(s.Samples), 10)
	dst = append(dst, "|params="...)
	return exp.AppendCanonicalParams(dst, s.Params)
}

// Key is Resolve's content address alone, for a caller that keeps the
// spec it already holds.
func (s RunSpec) Key() (string, error) {
	_, key, err := s.Resolve()
	return key, err
}

// Run normalizes the spec, builds the Study it describes (process
// preset, Monte-Carlo seed and budget) and executes the workload — the
// one run path of every front end: the CLI verbs, the serve executors
// and the shard runner. Extra options (context, progress, worker counts)
// apply on top and must not change results; they are not part of the
// key.
func (s RunSpec) Run(extra ...Option) (*exp.Result, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	proc, err := tech.Default().Lookup(n.Process)
	if err != nil {
		return nil, err
	}
	study, err := NewStudy(append([]Option{
		WithProcess(proc),
		WithMC(mc.Config{Samples: n.Samples, Seed: n.Seed}),
	}, extra...)...)
	if err != nil {
		return nil, err
	}
	return study.Run(n.Workload, n.Params)
}
