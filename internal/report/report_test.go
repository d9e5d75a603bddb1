package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// ParseSeriesCSV reads back a series written by Series.writeCSV.
func ParseSeriesCSV(r io.Reader) (Series, error) {
	recs, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return Series{}, fmt.Errorf("report: parse series csv: %w", err)
	}
	if len(recs) == 0 || len(recs[0]) != 2 {
		return Series{}, fmt.Errorf("report: series csv missing x,y header")
	}
	s := Series{X: recs[0][0], Y: recs[0][1]}
	for _, rec := range recs[1:] {
		x, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return Series{}, fmt.Errorf("report: series csv x %q: %w", rec[0], err)
		}
		y, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return Series{}, fmt.Errorf("report: series csv y %q: %w", rec[1], err)
		}
		s.Pts = append(s.Pts, XY{X: x, Y: y})
	}
	return s, nil
}

func sampleRun() *metrics.Run {
	r := &metrics.Run{Method: "fedat", Dataset: "cifar10like"}
	accs := []float64{0.1, 0.2, 0.35, 0.5, 0.48, 0.6}
	for i, a := range accs {
		r.Points = append(r.Points, metrics.Point{
			Round: i, Time: float64(i) * 10.5,
			UpBytes: int64(i) * 100, DownBytes: int64(i) * 50,
			Acc: a, Loss: 1 - a, Var: 0.01 * float64(i+1),
		})
	}
	r.UpBytes, r.DownBytes, r.GlobalRounds = 500, 250, 6
	return r
}

// sampleReport exercises every artifact kind.
func sampleReport() *Report {
	rep := &Report{ID: "demo", Title: "Artifact model demo"}
	tb := NewTable("Best accuracy", "method", "acc", "note")
	tb.AddRow(Str("FedAT"), Numf("%.3f", 0.591), Str("winner"))
	tb.AddRow(Str("FedAvg"), Numf("%.3f", 0.547)) // short row: padded
	rep.AddTable(tb)
	rep.AddSeries(Series{Name: "fedat/acc_vs_time", X: "time_s", Y: "acc",
		Pts: []XY{{0, 0.1}, {10.5, 0.2}, {21, 0.35}}})
	rep.AddScalar("target_acc", 0.532, "fraction")
	rep.AddNote("Paper shape: FedAT wins.")
	rep.Keep("cifar10(#2)/fedat", sampleRun())
	return rep
}

func TestTextGrid(t *testing.T) {
	tb := NewTable("Best accuracy", "method", "acc")
	tb.AddRow(Str("FedAT"), Numf("%.3f", 0.591))
	tb.AddRow(Str("FedAvg"), Numf("%.3f", 0.547))
	rep := &Report{ID: "demo", Title: "Grid"}
	rep.AddTable(tb)
	want := "# demo — Grid\n\n" +
		"## Best accuracy\n\n" +
		"method  acc  \n" +
		"------  -----\n" +
		"FedAT   0.591\n" +
		"FedAvg  0.547\n\n"
	if got := text(rep); got != want {
		t.Fatalf("text grid mismatch:\n--- got ---\n%q\n--- want ---\n%q", got, want)
	}
}

func TestDataOnlyArtifactsInvisibleInText(t *testing.T) {
	rep := &Report{ID: "demo", Title: "Data only"}
	base := text(rep)
	rep.AddSeries(Series{Name: "s", X: "x", Y: "y", Pts: []XY{{1, 2}}})
	rep.AddScalar("v", 1.5, "")
	if got := text(rep); got != base {
		t.Fatalf("series/scalar artifacts leaked into text output:\n%q", got)
	}
}

func TestNoteOwnsSpacing(t *testing.T) {
	rep := &Report{ID: "demo", Title: "Spacing"}
	rep.AddNote("no trailing newline")
	rep.AddNote("trailing newline\n")
	s := text(rep)
	if strings.Contains(s, "\n\n\n") {
		t.Fatalf("note spacing not normalized:\n%q", s)
	}
	if !strings.HasSuffix(s, "trailing newline\n\n") {
		t.Fatalf("note missing its blank line:\n%q", s)
	}
}

// TestRendererIdempotence renders every format twice and demands identical
// bytes: renderers must not mutate the report.
func TestRendererIdempotence(t *testing.T) {
	rep := sampleReport()
	if a, b := text(rep), text(rep); a != b {
		t.Fatal("text renderer not idempotent")
	}
	render := func() []byte {
		var buf bytes.Buffer
		env := &Envelope{Preset: "tiny", Seed: 42, Reports: []*Report{rep}}
		if err := WriteJSON(&buf, env); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Fatal("json renderer not idempotent")
	}
}

func TestJSONSchema(t *testing.T) {
	var buf bytes.Buffer
	rep := sampleReport()
	rep.WallMS = 12.5
	env := &Envelope{
		Preset: "tiny", Seed: 42,
		Reports: []*Report{rep},
		Scheduler: &SchedulerMeta{
			Simulations: 3, CacheHits: 2,
			Cells: []CellMeta{{Key: "tiny|cifar10(#2)|false|fedat|", SimMS: 100, Hits: 2}},
		},
	}
	if err := WriteJSON(&buf, env); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid json:\n%s", buf.String())
	}
	var doc struct {
		SchemaVersion int    `json:"schema_version"`
		Preset        string `json:"preset"`
		Seed          uint64 `json:"seed"`
		Reports       []struct {
			ID        string           `json:"id"`
			WallMS    float64          `json:"wall_ms"`
			Artifacts []map[string]any `json:"artifacts"`
			Runs      []struct {
				Key    string `json:"key"`
				Series []struct {
					Name   string       `json:"name"`
					Points [][2]float64 `json:"points"`
				} `json:"series"`
			} `json:"runs"`
		} `json:"reports"`
		Scheduler struct {
			Simulations int64 `json:"simulations"`
			Cells       []struct {
				Key string `json:"key"`
			} `json:"cells"`
		} `json:"scheduler"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion != schemaVersion || doc.Preset != "tiny" || doc.Seed != 42 {
		t.Fatalf("envelope metadata wrong: %+v", doc)
	}
	r := doc.Reports[0]
	if r.ID != "demo" || r.WallMS != 12.5 {
		t.Fatalf("report metadata wrong: %+v", r)
	}
	kinds := map[string]int{}
	for _, a := range r.Artifacts {
		kinds[a["kind"].(string)]++
	}
	if kinds["table"] != 1 || kinds["series"] != 1 || kinds["scalar"] != 1 || kinds["note"] != 1 {
		t.Fatalf("artifact kinds wrong: %v", kinds)
	}
	if len(r.Runs) != 1 || r.Runs[0].Key != "cifar10(#2)/fedat" {
		t.Fatalf("runs wrong: %+v", r.Runs)
	}
	// Every kept run expands into the three standard series.
	if len(r.Runs[0].Series) != 3 || len(r.Runs[0].Series[0].Points) != 6 {
		t.Fatalf("derived series wrong: %+v", r.Runs[0].Series)
	}
	if doc.Scheduler.Simulations != 3 || len(doc.Scheduler.Cells) != 1 {
		t.Fatalf("scheduler meta wrong: %+v", doc.Scheduler)
	}
}

// TestTableCellValues checks typed cells carry their numeric value into
// JSON while keeping the exact text.
func TestTableCellValues(t *testing.T) {
	tb := NewTable("c", "method", "acc")
	tb.AddRow(Str("FedAT"), Num(0.5912, "0.591"))
	raw, err := json.Marshal(tb.json())
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	for _, want := range []string{`"text":"0.591"`, `"value":0.5912`, `"text":"FedAT"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("table json missing %s:\n%s", want, s)
		}
	}
	if strings.Contains(s, `"FedAT","value"`) {
		t.Fatalf("text-only cell grew a value:\n%s", s)
	}
}

// TestWriteRunCSV pins the per-run evaluation dump format (migrated from
// the deleted internal/metrics CSV writer, byte-for-byte).
func TestWriteRunCSV(t *testing.T) {
	r := sampleRun()
	var buf bytes.Buffer
	if err := writeRunCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(r.Points)+1 {
		t.Fatalf("run csv has %d rows, want %d", len(lines), len(r.Points)+1)
	}
	if lines[0] != "round,time_s,up_bytes,down_bytes,acc,loss,var" {
		t.Fatalf("run csv header wrong: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,0.000,0,0,0.100000,") {
		t.Fatalf("first data row wrong: %q", lines[1])
	}
	for i, ln := range lines[1:] {
		if cells := strings.Count(ln, ",") + 1; cells != 7 {
			t.Fatalf("row %d has %d cells: %q", i, cells, ln)
		}
	}

	var empty bytes.Buffer
	if err := writeRunCSV(&empty, &metrics.Run{}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(empty.String(), "\n"); got != 1 {
		t.Fatalf("empty run csv has %d lines, want header only", got)
	}
}

// TestSeriesCSVRoundTrip is the metrics→series→csv→points loop: a run's
// derived series survive CSV emission exactly.
func TestSeriesCSVRoundTrip(t *testing.T) {
	run := sampleRun()
	for _, s := range seriesFromRun("cifar10(#2)/fedat", run) {
		var buf bytes.Buffer
		if err := s.writeCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ParseSeriesCSV(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.X != s.X || back.Y != s.Y {
			t.Fatalf("axis labels lost: %+v vs %+v", back, s)
		}
		if !reflect.DeepEqual(back.Pts, s.Pts) {
			t.Fatalf("series %s points changed across CSV round-trip:\n%v\n%v", s.Name, back.Pts, s.Pts)
		}
	}
}

func TestSeriesFromRunShapes(t *testing.T) {
	run := sampleRun()
	ss := seriesFromRun("k", run)
	if len(ss) != 3 {
		t.Fatalf("got %d series, want 3", len(ss))
	}
	if ss[0].Name != "k/acc_vs_time" || ss[0].X != "time_s" || ss[0].Y != "acc" {
		t.Fatalf("acc series misnamed: %+v", ss[0])
	}
	if got := ss[2].Pts[3]; got.X != 300 || got.Y != 0.5 {
		t.Fatalf("bytes series point wrong: %+v", got)
	}
	sm := SmoothedAccSeries("k", run, 2)
	if len(sm.Pts) != 3 {
		t.Fatalf("smoothed series has %d points, want 3", len(sm.Pts))
	}
}

func TestWriteCSVDir(t *testing.T) {
	dir := t.TempDir()
	files, err := WriteCSVDir(dir, sampleReport())
	if err != nil {
		t.Fatal(err)
	}
	// 1 table + 1 series artifact + 1 kept run.
	if len(files) != 3 {
		t.Fatalf("wrote %d files, want 3: %v", len(files), files)
	}
	for _, name := range files {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(bytes.TrimSpace(b)) == 0 {
			t.Fatalf("file %s empty", name)
		}
	}
	if files[0] != "demo__table01_Best_accuracy.csv" {
		t.Fatalf("table file name %q", files[0])
	}
}

func TestSlug(t *testing.T) {
	if got := slug("cifar10(#2)/fedat acc=1"); got != "cifar10__2__fedat_acc_1" {
		t.Fatalf("Slug = %q", got)
	}
	long := strings.Repeat("x", 200)
	if len(slug(long)) != 80 {
		t.Fatalf("Slug did not truncate: %d", len(slug(long)))
	}
}
