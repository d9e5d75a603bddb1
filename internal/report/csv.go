package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"repro/internal/metrics"
)

// writeCSV emits the table as CSV: the header row then one row per data
// row, using each cell's exact text rendering.
func (t *Table) writeCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return fmt.Errorf("report: write table csv header: %w", err)
	}
	for _, row := range t.Rows {
		rec := make([]string, len(row))
		for i, c := range row {
			rec[i] = c.Text
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("report: write table csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeCSV emits the series as two-column CSV. Values use the shortest
// round-trip float formatting, so parsing the file back yields the exact
// points.
func (s Series) writeCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{s.X, s.Y}); err != nil {
		return fmt.Errorf("report: write series csv header: %w", err)
	}
	for _, p := range s.Pts {
		rec := []string{
			strconv.FormatFloat(p.X, 'g', -1, 64),
			strconv.FormatFloat(p.Y, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("report: write series csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeRunCSV emits a run's evaluation points as CSV (one row per point),
// the format the plotting scripts and spreadsheet users consume. Columns:
// round, time_s, up_bytes, down_bytes, acc, loss, var.
func writeRunCSV(w io.Writer, r *metrics.Run) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"round", "time_s", "up_bytes", "down_bytes", "acc", "loss", "var"}); err != nil {
		return fmt.Errorf("report: write run csv header: %w", err)
	}
	for _, p := range r.Points {
		row := []string{
			fmt.Sprint(p.Round),
			fmt.Sprintf("%.3f", p.Time),
			fmt.Sprint(p.UpBytes),
			fmt.Sprint(p.DownBytes),
			fmt.Sprintf("%.6f", p.Acc),
			fmt.Sprintf("%.6f", p.Loss),
			fmt.Sprintf("%.8f", p.Var),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("report: write run csv row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("report: flush run csv: %w", err)
	}
	return nil
}

// WriteCSVDir writes the report's machine-readable pieces into dir — one
// file per table artifact, one per series artifact, and one full
// evaluation dump per kept run (via writeRunCSV) — and returns the
// file names written, in order.
func WriteCSVDir(dir string, r *Report) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	emit := func(name string, write func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		written = append(written, name)
		return nil
	}
	nTables, nSeries := 0, 0
	for _, a := range r.Artifacts {
		switch art := a.(type) {
		case *Table:
			nTables++
			name := fmt.Sprintf("%s__table%02d_%s.csv", r.ID, nTables, slug(art.Caption))
			if err := emit(name, art.writeCSV); err != nil {
				return written, err
			}
		case Series:
			nSeries++
			name := fmt.Sprintf("%s__series%02d_%s.csv", r.ID, nSeries, slug(art.Name))
			if err := emit(name, art.writeCSV); err != nil {
				return written, err
			}
		}
	}
	for _, key := range slices.Sorted(maps.Keys(r.Runs)) {
		run := r.Runs[key]
		name := fmt.Sprintf("%s__run_%s.csv", r.ID, slug(key))
		if err := emit(name, func(w io.Writer) error { return writeRunCSV(w, run) }); err != nil {
			return written, err
		}
	}
	return written, nil
}

// slug maps an artifact caption or run key to a filesystem-safe token:
// alphanumerics, '.', '-' and '_' pass through, everything else becomes
// '_'. Long slugs are truncated so paths stay manageable.
func slug(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
		default:
			out[i] = '_'
		}
	}
	const maxLen = 80
	if len(out) > maxLen {
		out = out[:maxLen]
	}
	return string(out)
}
