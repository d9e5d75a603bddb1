// Package report is the typed artifact model behind every experiment
// output. Experiments used to render themselves straight into []string
// sections, which made the terminal the only consumer the system could
// serve; they now emit structured artifacts — Table, Series, scalar, note
// — and pluggable renderers turn one Report into any consumer's format:
//
//   - text reproduces the human-readable report (byte-identical to the
//     pre-artifact-model output, pinned by golden tests in
//     internal/experiments/testdata),
//   - JSON emits a stable machine-readable schema with run metadata
//     (preset, seed, wall-clock, scheduler cell timings/hits),
//   - CSV writes one file per table and series for plotting and diffing.
//
// Artifacts own their spacing: each one's text form is a self-contained
// block (ending in exactly one blank line) or empty, so renderers never
// patch newlines after the fact and rendering is idempotent.
package report

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
)

// Report is the structured output of one experiment.
type Report struct {
	ID    string
	Title string
	// Artifacts are rendered in order.
	Artifacts []Artifact
	// Runs keeps the raw run records for programmatic consumers (plots,
	// JSON/CSV series emission, assertions in tests).
	Runs map[string]*metrics.Run
	// WallMS is the experiment's wall-clock in milliseconds, stamped by
	// the caller that timed it (cmd/fedsim); 0 when untimed.
	WallMS float64
}

// Artifact is one typed element of a report. Its text form is either a
// self-contained block ending in exactly one blank line, or "" for
// data-only artifacts (Series, scalar) that exist for the machine-readable
// renderers.
type Artifact interface {
	text() string
	json() jsonArtifact
}

// add appends any artifact.
func (r *Report) add(a Artifact) { r.Artifacts = append(r.Artifacts, a) }

// AddTable appends a table artifact.
func (r *Report) AddTable(t *Table) { r.add(t) }

// AddNote appends a free-form human-readable note.
func (r *Report) AddNote(text string) { r.add(note{Text: text}) }

// AddScalar appends a named machine-readable value (data-only: scalars
// appear in JSON, not in the text report).
func (r *Report) AddScalar(name string, value float64, unit string) {
	r.add(scalar{Name: name, Value: value, Unit: unit})
}

// AddSeries appends an x/y series (data-only: series feed the JSON and CSV
// renderers, the text report keeps its sampled timeline tables).
func (r *Report) AddSeries(s Series) { r.add(s) }

// Keep stores a run record under a key.
func (r *Report) Keep(key string, run *metrics.Run) {
	if r.Runs == nil {
		r.Runs = map[string]*metrics.Run{}
	}
	r.Runs[key] = run
}

// Cell is one typed table cell: the exact text rendering plus, when the
// cell is numeric at heart, the unformatted value for machine consumers.
type Cell struct {
	Text  string
	Value *float64
}

// Str builds a text-only cell.
func Str(s string) Cell { return Cell{Text: s} }

// Num builds a cell whose text rendering is backed by a numeric value.
func Num(v float64, text string) Cell { return Cell{Text: text, Value: &v} }

// Numf is Num with the text produced by a fmt verb applied to v.
func Numf(format string, v float64) Cell { return Num(v, fmt.Sprintf(format, v)) }

// Table is a captioned grid of typed cells.
type Table struct {
	Caption string
	Header  []string
	Rows    [][]Cell
}

// NewTable creates a table with a caption and column headers.
func NewTable(caption string, header ...string) *Table {
	return &Table{Caption: caption, Header: header}
}

// AddRow appends a row; short rows are padded to the header width and long
// rows truncated to it.
func (t *Table) AddRow(cells ...Cell) {
	row := make([]Cell, len(t.Header))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Series is a machine-readable x/y curve, e.g. an accuracy-vs-time or
// accuracy-vs-bytes timeline. Data-only: the text renderer skips it.
type Series struct {
	Name string // e.g. "cifar10(#2)/fedat/acc_vs_time"
	X, Y string // axis labels, e.g. "time_s", "acc"
	Pts  []XY
}

// XY is one series point.
type XY struct {
	X, Y float64
}

// scalar is a single named machine-readable value. Data-only: the text
// renderer skips it.
type scalar struct {
	Name  string
	Value float64
	Unit  string
}

// note is a free-form human-readable block.
type note struct {
	Text string
}

// text renders the table as a self-contained block: "## caption", a blank
// line, the fixed-width grid, and a trailing blank line.
func (t *Table) text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n\n", t.Caption)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c.Text) > widths[i] {
				widths[i] = len(c.Text)
			}
		}
	}
	writeRow := func(texts func(i int) string) {
		for i := range t.Header {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], texts(i))
		}
		b.WriteByte('\n')
	}
	writeRow(func(i int) string { return t.Header[i] })
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		row := row
		writeRow(func(i int) string { return row[i].Text })
	}
	b.WriteByte('\n')
	return b.String()
}

// text renders the note followed by one blank line; trailing newlines in
// the note itself are normalized away so the artifact owns its spacing.
func (n note) text() string { return strings.TrimRight(n.Text, "\n") + "\n\n" }

func (s Series) text() string { return "" }
func (s scalar) text() string { return "" }
