// The workload registry: every experiment registers one Workload
// descriptor — name, summary, typed parameter schema, budget hints and a
// uniform Run function — and every consumer (core.Study.Run, the CLI
// dispatcher, the smoke tests, RunAll) drives experiments through it.
// Adding an experiment is one file with an init() registration: the CLI
// usage text, the flag binding, the smoke coverage and the Study surface
// all pick it up with zero edits elsewhere.
package exp

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"unicode/utf8"

	"mpsram/internal/report"
)

// ParamKind types a workload parameter.
type ParamKind int

const (
	IntParam ParamKind = iota
	FloatParam
	BoolParam
	StringParam
)

// String names the kind for usage text and error messages.
func (k ParamKind) String() string {
	switch k {
	case IntParam:
		return "int"
	case FloatParam:
		return "float"
	case BoolParam:
		return "bool"
	case StringParam:
		return "string"
	default:
		return fmt.Sprintf("ParamKind(%d)", int(k))
	}
}

// ParamSpec declares one typed workload parameter. The CLI binds a flag
// per spec (default and help straight from here); Study.Run validates the
// caller's Params map against it.
type ParamSpec struct {
	Name    string
	Kind    ParamKind
	Default any
	Help    string
}

// Params carries per-run workload arguments keyed by ParamSpec name.
// Values are validated and defaulted by Run before the workload sees
// them, so accessors inside a workload can assume their declared types.
type Params map[string]any

// Int returns an integer parameter (post-validation).
func (p Params) Int(name string) int { return p[name].(int) }

// Float returns a float parameter (post-validation).
func (p Params) Float(name string) float64 { return p[name].(float64) }

// Bool returns a boolean parameter (post-validation).
func (p Params) Bool(name string) bool { return p[name].(bool) }

// String returns a string parameter (post-validation).
func (p Params) String(name string) string { return p[name].(string) }

// Hints carries workload-level budget advice for callers that configure
// the environment generically (the CLI, smoke harnesses). They are
// descriptive — Run never applies them behind the caller's back.
type Hints struct {
	// Samples is the preferred Monte-Carlo budget when the caller has
	// not chosen one (0 = no preference). SPICE-in-the-loop workloads
	// use it to replace the analytic 10k default with an affordable
	// transient budget.
	Samples int
	// CVSamples is the advised budget when the workload runs with its
	// control-variate estimator (`cv` param): each paired draw carries
	// ~1/(1−ρ̂²) plain draws' worth of statistical power, so far fewer
	// transients reach the same standard error. 0 = the workload has no
	// cv mode or no separate advice. Like Samples, purely descriptive.
	CVSamples int
	// Smoke holds tiny-budget parameter overrides for registry-iterating
	// smoke runs (nil = the schema defaults are already cheap).
	Smoke Params
	// Cost weighs one Monte-Carlo sample of this workload against one
	// analytic trial, so schedulers can estimate a submission's total
	// cost as Samples × Cost before executing it (the serve layer's
	// fan-out threshold). Zero means the workload's runtime is not
	// dominated by its shardable Monte-Carlo stream — analytic corner
	// studies, pure SPICE sweeps, listings — and fan-out must leave it
	// single-process. Like the budgets, purely descriptive.
	Cost float64
}

// Result is what every workload returns: the typed rows (Data), the
// tabular view feeding the shared csv/md/json encoders in
// internal/report, and the paper-style plain-text rendering, which is
// formatted only when it is asked for.
type Result struct {
	// Data holds the workload's native typed rows (e.g. []Table1Row) for
	// programmatic consumers, who type-assert it to the workload's row
	// type.
	Data any
	// Tables is the machine-readable view. Most workloads emit one
	// table; composite workloads (spicetables, ext, all) emit several.
	Tables []*report.Table
	// Text formats the paper-style rendering. Only Write(FormatText)
	// and the "all" plan call it, so a run rendered in another format
	// never formats text. A nil Text renders nothing.
	Text func() string
}

// Write renders the result: FormatText prints the paper-style text,
// every other format goes through the shared report encoders. A workload
// without a tabular view errors loudly on the machine-readable formats
// instead of leaking text where a consumer expects JSON/CSV.
func (r *Result) Write(w io.Writer, f report.Format) error {
	if f == report.FormatText {
		if r.Text == nil {
			return nil
		}
		_, err := io.WriteString(w, r.Text())
		return err
	}
	if len(r.Tables) == 0 {
		return fmt.Errorf("exp: result has no tabular view; only text format is available")
	}
	return report.WriteTables(w, f, r.Tables...)
}

// Workload is one registered experiment.
type Workload struct {
	// Name is the registry key and CLI command.
	Name string
	// Summary is the one-line description shown in the generated usage.
	Summary string
	// Order fixes the listing position (paper order first, extensions
	// after); ties break by name.
	Order int
	// InAll marks the workloads the "all" plan runs, in Order.
	InAll bool
	// Params is the typed parameter schema. A parameter whose name
	// matches a CLI run flag (-n, -ol, -thk) is fed by that flag rather
	// than a duplicate binding.
	Params []ParamSpec
	// Hints carries budget advice for generic callers.
	Hints Hints
	// Run executes the workload under the environment with validated,
	// defaulted parameters. e.Ctx is never nil; a body that blocks
	// selects on e.Ctx.Done() to honor cancellation.
	Run func(e Env, p Params) (*Result, error)
}

var registry = map[string]*Workload{}

// Register adds a workload to the registry; duplicate names, malformed
// schemas and missing Run functions panic at init time.
func Register(w Workload) {
	if w.Name == "" || w.Run == nil {
		panic(fmt.Sprintf("exp: workload %q missing name or Run", w.Name))
	}
	if _, dup := registry[w.Name]; dup {
		panic(fmt.Sprintf("exp: duplicate workload %q", w.Name))
	}
	seen := map[string]bool{}
	cp := w
	cp.Params = append([]ParamSpec(nil), w.Params...)
	for i, ps := range cp.Params {
		if ps.Name == "" || seen[ps.Name] {
			panic(fmt.Sprintf("exp: workload %q: empty or duplicate param %q", w.Name, ps.Name))
		}
		seen[ps.Name] = true
		// Normalize the default to its coerced form so every consumer
		// (the CLI's flag binding included) sees the declared kind's
		// native type, not whatever spelling the registration used.
		def, err := coerceParam(ps, ps.Default)
		if err != nil {
			panic(fmt.Sprintf("exp: workload %q: default for %s: %v", w.Name, ps.Name, err))
		}
		cp.Params[i].Default = def
	}
	registry[w.Name] = &cp
}

// Workloads returns every registered workload in listing order.
func Workloads() []Workload {
	out := make([]Workload, 0, len(registry))
	for _, w := range registry {
		out = append(out, *w)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Order != out[j].Order {
			return out[i].Order < out[j].Order
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// WorkloadNames returns the registered names in listing order.
func WorkloadNames() []string {
	ws := Workloads()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}

// LookupWorkload resolves a name; unknown names answer with the registry,
// the same contract the technology registry uses — CLIs surface it
// verbatim.
func LookupWorkload(name string) (Workload, error) {
	w, ok := registry[name]
	if !ok {
		return Workload{}, fmt.Errorf("exp: unknown workload %q (registered: %s)",
			name, strings.Join(WorkloadNames(), ", "))
	}
	return *w, nil
}

// coerceParam checks one value against a spec, accepting the natural
// cross-type spellings (ints where floats are declared, integral floats
// where ints are — what JSON decoding and literal Params maps produce).
// It also refuses, by kind, what a JSON front end (serve, the shard
// fabric) cannot carry, so every run key names a spec each front end can
// submit: an int past ±2^53, the last integer up to which every integer
// is a JSON number (a float64), a float of +Inf, and a string that is not
// valid UTF-8. A float's NaN and -Inf fall to its range check
// (checkRanges), which keeps their "must not be negative" text.
func coerceParam(ps ParamSpec, v any) (any, error) {
	switch ps.Kind {
	case IntParam:
		var n int64
		switch x := v.(type) {
		case int:
			n = int64(x)
		case int64:
			n = x
		case float64:
			if x != math.Trunc(x) {
				return nil, fmt.Errorf("param %s: %v is not an integer", ps.Name, x)
			}
			// Clamped first: int64(x) is undefined past int64's range,
			// and either clamp is refused below.
			n = int64(max(-1<<54, min(x, 1<<54)))
		default:
			return nil, fmt.Errorf("param %s: want %v, got %T", ps.Name, ps.Kind, v)
		}
		if n > 1<<53 {
			return nil, fmt.Errorf("param %s must be at most 2^53 (9007199254740992), got %v", ps.Name, v)
		} else if n < -1<<53 {
			return nil, fmt.Errorf("param %s must be at least -2^53 (-9007199254740992), got %v", ps.Name, v)
		}
		return int(n), nil
	case FloatParam:
		switch x := v.(type) {
		case float64:
			if x > math.MaxFloat64 {
				return nil, fmt.Errorf("param %s must be finite, got %v", ps.Name, x)
			}
			return x, nil
		case float32:
			return coerceParam(ps, float64(x))
		case int:
			return float64(x), nil
		case int64:
			return float64(x), nil
		}
	case BoolParam:
		if x, ok := v.(bool); ok {
			return x, nil
		}
	case StringParam:
		if x, ok := v.(string); ok {
			if !utf8.ValidString(x) {
				// JSON would spell it with U+FFFD.
				return nil, fmt.Errorf("param %s: %q is not valid UTF-8", ps.Name, x)
			}
			return x, nil
		}
	}
	return nil, fmt.Errorf("param %s: want %v, got %T", ps.Name, ps.Kind, v)
}

// resolveParams validates p against the schema and fills defaults.
// Unknown keys error with the valid parameter names, mirroring the
// unknown-workload and unknown-process contracts.
func resolveParams(w Workload, p Params) (Params, error) {
	out := make(Params, len(w.Params))
	for _, ps := range w.Params {
		v, _ := coerceParam(ps, ps.Default)
		out[ps.Name] = v
	}
	for name, v := range p {
		var spec *ParamSpec
		for i := range w.Params {
			if w.Params[i].Name == name {
				spec = &w.Params[i]
				break
			}
		}
		if spec == nil {
			valid := make([]string, len(w.Params))
			for i, ps := range w.Params {
				valid[i] = ps.Name
			}
			if len(valid) == 0 {
				return nil, fmt.Errorf("exp: workload %s takes no parameters, got %q", w.Name, name)
			}
			return nil, fmt.Errorf("exp: workload %s has no parameter %q (valid: %s)",
				w.Name, name, strings.Join(valid, ", "))
		}
		cv, err := coerceParam(*spec, v)
		if err != nil {
			return nil, fmt.Errorf("exp: workload %s: %w", w.Name, err)
		}
		out[name] = cv
	}
	if err := checkRanges(out); err != nil {
		return nil, fmt.Errorf("exp: workload %s: %w", w.Name, err)
	}
	return out, nil
}

// checkRanges refuses values of the registry-wide parameters that no run
// can mean, so no run key ever names them: an array has at least one
// word line, an overlay or thickness 3σ budget is not negative (nor NaN),
// and a size list must parse (ParseSizes).
func checkRanges(p Params) error {
	if n, ok := p["n"].(int); ok && n < 1 {
		return fmt.Errorf("param n must be at least 1, got %d", n)
	}
	for _, name := range []string{"ol", "thk"} {
		if v, ok := p[name].(float64); ok && !(v >= 0) {
			return fmt.Errorf("param %s must not be negative, got %v", name, v)
		}
	}
	if s, ok := p["sizes"].(string); ok && s != "" {
		if _, err := ParseSizes(s); err != nil {
			return fmt.Errorf("param sizes: %w", err)
		}
	}
	return nil
}

// Run executes a registered workload by name under the environment:
// lookup, parameter validation and defaulting, then the workload body
// with e.Ctx defaulted to context.Background().
func Run(e Env, name string, p Params) (*Result, error) {
	w, err := LookupWorkload(name)
	if err != nil {
		return nil, err
	}
	rp, err := resolveParams(w, p)
	if err != nil {
		return nil, err
	}
	e.Ctx = e.ctx()
	res, err := w.Run(e, rp)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	return res, nil
}
