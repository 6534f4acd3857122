// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4) plus the extension studies. Each artifact is a
// pure renderer over *scenario.Report: a request derives its scenario
// specs from the paper-baseline built-in (so the three service providers
// are defined once), runs each distinct spec through the scenario engine
// and renders the artifacts from the reports. The paper's reported values
// are embedded so dawningbench and the bench harness can print
// paper-vs-measured side by side.
package experiments

import "repro/internal/plot"

// Provider names of the paper-baseline scenario.
const (
	NASAProvider    = "org-nasa-htc"
	BLUEProvider    = "org-blue-htc"
	MontageProvider = "org-montage-mtc"
)

// Artifact is a rendered experiment output.
type Artifact struct {
	ID       string // "table2", "fig12", ...
	Title    string
	Text     string             // rendered text form
	SVG      string             // optional standalone SVG ("" when not a chart)
	PaperRef string             // the paper's reported numbers, for comparison
	Values   map[string]float64 // key measured values for assertions
}

// Table1 renders the qualitative usage-model comparison (paper Table 1).
func Table1() Artifact {
	columns := []string{"", "DCS", "SSP", "DRP", "DSP"}
	rows := [][]string{
		{"resource property", "local", "leased", "leased", "leased"},
		{"runtime environment", "stereotyped", "stereotyped", "no offering", "created on demand"},
		{"resource provision for RE", "fixed", "fixed", "manual", "flexible"},
	}
	text := plot.Table("Table 1: comparison of usage models", columns, rows, "")
	return Artifact{
		ID:    "table1",
		Title: "Comparison of different usage models",
		Text:  text,
		PaperRef: "identical by construction: the table is the paper's " +
			"definition of the four usage models",
	}
}
