// The carried cross-node SPICE validation: the `nodes` comparison driven
// by full read transients instead of the closed-form formula, per process
// preset (N10 plus the derived N7/N5) and patterning option at the
// paper's n = 64. The analytic study predicts the LE3 σ amplifying
// 2.27 → 4.65 pp from N10 to N5 at the 8 nm overlay budget while SADP
// stays node-flat; this workload checks that amplification against
// simulated transients on the derived presets. It is affordable only
// because it rides the control-variate estimator — ~60 paired draws per
// (node, option) buy plain-estimator hundreds — so the CV machinery is
// always on here; the analytic reference column doubles as the
// amplification being validated.
//
// Like every workload, this file is self-registering: no CLI, serve or
// smoke-harness edits anywhere else.
package exp

import (
	"fmt"
	"strings"

	"mpsram/internal/litho"
	"mpsram/internal/report"
	"mpsram/internal/tech"
)

func init() {
	Register(Workload{
		Name: "mcspicenodes", Summary: "cross-node SPICE-measured tdp sigma vs analytic amplification (control-variate accelerated)",
		Order: 118,
		Params: []ParamSpec{
			{Name: "n", Kind: IntParam, Default: NodesN, Help: "array word-line count"},
			{Name: "ol", Kind: FloatParam, Default: 8,
				Help: "LE3 overlay 3σ budget [nm] applied to every node (0 = each node's preset)"},
			{Name: "adaptive", Kind: BoolParam, Default: false,
				Help: "adaptive step-doubling transient integrator (accuracy-gated, ~7× fewer steps)"},
		},
		// The CV estimator makes the budget hint a fraction of mcspice's
		// 200: 60 paired draws per (node, option) measure σ with
		// comparable standard error at ~1/10 the transient count of a
		// plain cross-node run. The smoke override shrinks the array so
		// the 3-node × 3-option DOE stays a few seconds.
		Hints: Hints{Samples: 60, Smoke: Params{"n": 8}, Cost: 12000},
		Run: func(e Env, p Params) (*Result, error) {
			e = withAdaptive(e, p)
			rows, err := MCSpiceNodes(e, p.Int("n"), p.Float("ol")*1e-9)
			if err != nil {
				return nil, err
			}
			return &Result{
				Data:   rows,
				Tables: []*report.Table{MCSpiceNodesReport(rows)},
				Text:   func() string { return FormatMCSpiceNodes(rows, p.Int("n"), e.MC.Samples) },
			}, nil
		},
	})
}

// MCSpiceNodesRow is one (process, option) cell of the cross-node SPICE
// validation.
type MCSpiceNodesRow struct {
	Process string
	SpiceMCCVRow
}

// MCSpiceNodes runs the control-variate SPICE-MC once per preset of the
// process registry at array size n. A non-zero ol (metres) pins the
// LE3 overlay 3σ budget on every node so the cross-node amplification is
// read at one fixed budget (the analytic study's 8 nm column); ol = 0
// keeps each node's own preset. Every node runs its own deterministic
// sample stream and derives its own analytic model, nominal parasitics
// and reference moments.
func MCSpiceNodes(e Env, n int, ol float64) ([]MCSpiceNodesRow, error) {
	var rows []MCSpiceNodesRow
	for _, proc := range tech.Default().Processes() {
		env := e
		env.Proc = proc
		if ol > 0 {
			env.Proc = proc.WithOL(ol)
		}
		cells, err := SpiceMCCV(env, []int{n})
		if err != nil {
			return nil, fmt.Errorf("mcspicenodes %s: %w", proc.Name, err)
		}
		for _, c := range cells {
			rows = append(rows, MCSpiceNodesRow{Process: proc.Name, SpiceMCCVRow: c})
		}
	}
	return rows, nil
}

// FormatMCSpiceNodes renders the validation long-format: per node and
// option the CV-corrected SPICE σ next to the analytic reference σ whose
// cross-node amplification it validates.
func FormatMCSpiceNodes(rows []MCSpiceNodesRow, n, samples int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-node SPICE validation (array 10x%d, %d paired draws per node/option, CV estimator)\n", n, samples)
	fmt.Fprintf(&b, "%-6s %-8s %10s %10s %10s %8s %8s\n",
		"node", "option", "σ_cv", "σ_spice", "σ_ref", "ρ", "VR")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-8v %9.3f%% %9.3f%% %9.3f%% %8.4f %8.1f\n",
			r.Process, r.Option, r.CVStd, r.Spice.Std, r.RefStd, r.Rho, r.VarReduction)
	}
	// The headline comparison: per option, σ at the last node over σ at
	// the first (the amplification the analytic study predicts).
	first, last := map[litho.Option]float64{}, map[litho.Option]float64{}
	var firstName, lastName string
	for _, r := range rows {
		if _, ok := first[r.Option]; !ok {
			first[r.Option] = r.CVStd
			firstName = r.Process
		}
		last[r.Option] = r.CVStd
		lastName = r.Process
	}
	if firstName != lastName {
		fmt.Fprintf(&b, "σ amplification %s → %s:", firstName, lastName)
		for _, o := range litho.Options {
			if first[o] > 0 {
				fmt.Fprintf(&b, "  %v %.2f×", o, last[o]/first[o])
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// MCSpiceNodesReport converts the rows for csv/md/json output.
func MCSpiceNodesReport(rows []MCSpiceNodesRow) *report.Table {
	t := report.New("Cross-node SPICE-measured vs analytic tdp sigma (control-variate estimator)",
		"process", "option", "wordlines", "samples", "rejected",
		"cv_sigma_pct", "spice_sigma_pct", "ref_sigma_pct",
		"cv_mean_pct", "ref_mean_pct", "beta", "rho", "vr_factor", "ess", "ref_samples")
	for _, r := range rows {
		t.Appendf(r.Process, r.Option.String(), r.N, r.Spice.N, r.Rejected,
			r.CVStd, r.Spice.Std, r.RefStd,
			r.CVMean, r.RefMean, r.Beta, r.Rho, r.VarReduction, r.EffectiveN, r.RefSamples)
	}
	return t
}
