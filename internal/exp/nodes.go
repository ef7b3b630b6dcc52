// The cross-node comparison: the paper's Table IV σ study repeated on
// every preset of the process registry (N10 plus the derived N7- and
// N5-class presets) and laid side by side. Not a table of the paper —
// the paper pins one imec-N10-flavoured node — but the study its
// conclusion asks for: how the per-option variability ranking and the
// absolute σ budgets move as the metal pitch shrinks faster than the
// litho control tightens.
package exp

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"mpsram/internal/analytic"
	"mpsram/internal/litho"
	"mpsram/internal/report"
	"mpsram/internal/tech"
)

func init() {
	Register(Workload{
		Name: "nodes", Summary: "cross-node tdp sigma comparison across the process registry",
		Order:  100,
		Hints:  Hints{Cost: 3},
		Params: []ParamSpec{{Name: "n", Kind: IntParam, Default: NodesN, Help: "array word-line count"}},
		Run: func(e Env, p Params) (*Result, error) {
			n := p.Int("n")
			rows, err := NodesAt(e, n)
			if err != nil {
				return nil, err
			}
			return &Result{Data: rows, Tables: []*report.Table{NodesReport(rows, n)}, Text: func() string { return FormatNodes(rows, n) }}, nil
		},
	})
}

// NodesN is the array size of the cross-node comparison (the paper's
// Table IV size).
const NodesN = 64

// NodesRow is one (process, option/overlay) cell of the cross-node σ
// comparison.
type NodesRow struct {
	Process string
	Option  litho.Option
	OL      float64 // LE3 overlay 3σ budget (0 for SADP/EUV)
	Sigma   float64 // std of tdp in percentage points
	Mean    float64
}

// processSurfaces runs sigmaSurface at sizes on every preset of the
// process registry, in registry order, each with the formula parameters
// of its own nominal parasitics; every model is derived before the first
// stream. Every node's trial i re-derives the same PRNG state from
// (Seed, i) and maps it through that node's own variation budgets, so
// cross-node σ deltas are attributable to the process.
func (e Env) processSurfaces(sizes []int) ([]ProcessSurface, error) {
	procs := tech.Default().Processes()
	models := make([]analytic.Params, len(procs))
	for i, p := range procs {
		env := e
		env.Proc = p
		m, err := env.Model()
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", p.Name, err)
		}
		models[i] = m
	}
	out := make([]ProcessSurface, len(procs))
	for i, p := range procs {
		rows, err := e.sigmaSurface(p, models[i], sizes)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		out[i] = ProcessSurface{Process: p.Name, Rows: rows}
	}
	return out, nil
}

// NodesAt runs the Table-IV-style σ comparison across the process
// registry at array size n (the workload's default is the paper's
// NodesN): per node, the tdp σ for LE3 at every overlay budget plus SADP
// and EUV, each node on its own deterministic sample stream.
func NodesAt(e Env, n int) ([]NodesRow, error) {
	surfs, err := e.processSurfaces([]int{n})
	if err != nil {
		return nil, fmt.Errorf("nodes: %w", err)
	}
	var rows []NodesRow
	for _, s := range surfs {
		for _, r := range s.Rows {
			rows = append(rows, NodesRow{
				Process: s.Process,
				Option:  r.Option,
				OL:      r.OL,
				Sigma:   r.Cells[0].Sigma,
				Mean:    r.Cells[0].Mean,
			})
		}
	}
	return rows, nil
}

// nodesRowName renders the option/overlay label of a row.
func nodesRowName(o litho.Option, ol float64) string {
	if o == litho.LE3 {
		return fmt.Sprintf("%v %.0fnm OL", o, ol*1e9)
	}
	return o.String()
}

// FormatNodes renders the comparison with one σ column per node — the
// Table IV layout with the process as the horizontal axis.
func FormatNodes(rows []NodesRow, n int) string {
	var (
		nodes []string
		seen  = map[string]bool{}
		confs []string
		cseen = map[string]bool{}
		cell  = map[string]float64{}
	)
	for _, r := range rows {
		if !seen[r.Process] {
			seen[r.Process] = true
			nodes = append(nodes, r.Process)
		}
		c := nodesRowName(r.Option, r.OL)
		if !cseen[c] {
			cseen[c] = true
			confs = append(confs, c)
		}
		cell[r.Process+"/"+c] = r.Sigma
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-node comparison: tdp σ [pp] per patterning option (array 10x%d)\n", n)
	fmt.Fprintf(&b, "%-24s", "patterning option")
	for _, nd := range nodes {
		h := "σ@" + nd
		fmt.Fprintf(&b, " %*s", 11+len(h)-utf8.RuneCountInString(h), h)
	}
	b.WriteString("\n")
	for _, c := range confs {
		fmt.Fprintf(&b, "%-24s", c)
		for _, nd := range nodes {
			fmt.Fprintf(&b, " %11.3f", cell[nd+"/"+c])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// NodesReport converts the rows for csv/md output (long format: one
// record per process/option/overlay cell).
func NodesReport(rows []NodesRow, n int) *report.Table {
	t := report.New("Cross-node tdp sigma comparison",
		"process", "option", "ol_nm", "wordlines", "sigma_pp", "mean_pp")
	for _, r := range rows {
		ol := ""
		if r.Option == litho.LE3 {
			ol = fmt.Sprintf("%.0f", r.OL*1e9)
		}
		t.Appendf(r.Process, r.Option.String(), ol, n, r.Sigma, r.Mean)
	}
	return t
}

// Table4Surfaces extends Table4Surface across the process registry: one
// extended Table IV per process, each from its own shared-sample-stream
// surface.
func Table4Surfaces(e Env) ([]ProcessSurface, error) {
	surfs, err := e.processSurfaces(PaperSizes)
	if err != nil {
		return nil, fmt.Errorf("table4 surfaces: %w", err)
	}
	return surfs, nil
}

// FormatTable4Surfaces renders the per-process surfaces back to back.
func FormatTable4Surfaces(surfs []ProcessSurface) string {
	var b strings.Builder
	for i, s := range surfs {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "[%s]\n%s", s.Process, FormatTable4Surface(s.Rows))
	}
	return b.String()
}

// Table4SurfacesReport converts the per-process surfaces for csv/md
// output (long format with a leading process column).
func Table4SurfacesReport(surfs []ProcessSurface) *report.Table {
	t := report.New("Table IV (extended) per process: tdp sigma across array sizes",
		"process", "option", "ol_nm", "wordlines", "sigma_pp", "mean_pp")
	for _, s := range surfs {
		for _, r := range s.Rows {
			ol := ""
			if r.Option == litho.LE3 {
				ol = fmt.Sprintf("%.0f", r.OL*1e9)
			}
			for _, c := range r.Cells {
				t.Appendf(s.Process, r.Option.String(), ol, c.N, c.Sigma, c.Mean)
			}
		}
	}
	return t
}
