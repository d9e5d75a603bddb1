package report

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"

	"repro/internal/metrics"
)

// schemaVersion identifies the JSON layout; bump on breaking changes so
// downstream consumers (BENCH trajectories, regression gates, plotting)
// can detect schema rot instead of misparsing.
const schemaVersion = 1

// Envelope is the root JSON document: one or more reports plus the run
// metadata shared by all of them.
type Envelope struct {
	SchemaVersion int            `json:"schema_version"`
	Generator     string         `json:"generator"`
	Preset        string         `json:"preset"`
	Seed          uint64         `json:"seed"`
	Reports       []*Report      `json:"reports"`
	Scheduler     *SchedulerMeta `json:"scheduler,omitempty"`
}

// SchedulerMeta is the experiment scheduler's account of the run: how many
// simulations executed (uncached ones, such as the scale experiment's
// ladder, included), how many cells a request found already cached or in
// flight, and the per-cell record of every cached cell. An experiment
// requests its grid once, so cache_hits counts runs shared between
// requests.
type SchedulerMeta struct {
	Simulations int64      `json:"simulations"`
	CacheHits   int64      `json:"cache_hits"`
	Cells       []CellMeta `json:"cells"`
}

// CellMeta describes one scheduler cell: its cache key, the wall-clock its
// one simulation took once it held a simulation slot, and how many later
// requests were served from the result.
type CellMeta struct {
	Key   string  `json:"key"`
	SimMS float64 `json:"sim_ms"`
	Hits  int64   `json:"hits"`
}

// WriteJSON writes the envelope as indented JSON. Output is deterministic
// up to the timing fields (wall_ms, sim_ms): every map is serialized
// through a sorted-key traversal, so two runs of the same experiments
// differ only in those fields — strip them before byte-diffing documents.
func WriteJSON(w io.Writer, env *Envelope) error {
	env.SchemaVersion = schemaVersion
	if env.Generator == "" {
		env.Generator = "fedsim"
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(env); err != nil {
		return fmt.Errorf("report: encode json: %w", err)
	}
	return nil
}

// jsonReport is the serialized form of a Report.
type jsonReport struct {
	ID        string         `json:"id"`
	Title     string         `json:"title"`
	WallMS    float64        `json:"wall_ms"`
	Artifacts []jsonArtifact `json:"artifacts"`
	Runs      []jsonRun      `json:"runs"`
}

// jsonArtifact is the tagged-union serialization of one artifact; only the
// fields of the artifact's kind are populated.
type jsonArtifact struct {
	Kind    string       `json:"kind"`
	Caption string       `json:"caption,omitempty"`
	Header  []string     `json:"header,omitempty"`
	Rows    [][]jsonCell `json:"rows,omitempty"`
	Name    string       `json:"name,omitempty"`
	X       string       `json:"x,omitempty"`
	Y       string       `json:"y,omitempty"`
	Points  [][2]float64 `json:"points,omitempty"`
	Value   *float64     `json:"value,omitempty"`
	Unit    string       `json:"unit,omitempty"`
	Text    string       `json:"text,omitempty"`
}

type jsonCell struct {
	Text  string   `json:"text"`
	Value *float64 `json:"value,omitempty"`
}

// jsonRun is the serialized form of one kept run record: headline numbers
// plus the standard derived series.
type jsonRun struct {
	Key          string  `json:"key"`
	Method       string  `json:"method"`
	Dataset      string  `json:"dataset"`
	GlobalRounds int     `json:"global_rounds"`
	UpBytes      int64   `json:"up_bytes"`
	DownBytes    int64   `json:"down_bytes"`
	BestAcc      float64 `json:"best_acc"`
	FinalAcc     float64 `json:"final_acc"`
	// Runtime re-tiering activity (0/absent for static-tier runs).
	Retiers        int `json:"retiers,omitempty"`
	TierMigrations int `json:"tier_migrations,omitempty"`
	// Hierarchical edge→cloud fold activity (0/absent for flat runs).
	EdgeFolds     int      `json:"edge_folds,omitempty"`
	EdgeStaleness float64  `json:"edge_staleness,omitempty"`
	Series        []Series `json:"series"`
}

// MarshalJSON serializes the report with artifacts as a tagged union and
// kept runs (sorted by key) expanded into their standard series.
func (r *Report) MarshalJSON() ([]byte, error) {
	jr := jsonReport{
		ID:        r.ID,
		Title:     r.Title,
		WallMS:    r.WallMS,
		Artifacts: make([]jsonArtifact, 0, len(r.Artifacts)),
		Runs:      make([]jsonRun, 0, len(r.Runs)),
	}
	for _, a := range r.Artifacts {
		jr.Artifacts = append(jr.Artifacts, a.json())
	}
	for _, key := range slices.Sorted(maps.Keys(r.Runs)) {
		jr.Runs = append(jr.Runs, runJSON(key, r.Runs[key]))
	}
	return json.Marshal(jr)
}

func runJSON(key string, run *metrics.Run) jsonRun {
	return jsonRun{
		Key:            key,
		Method:         run.Method,
		Dataset:        run.Dataset,
		GlobalRounds:   run.GlobalRounds,
		UpBytes:        run.UpBytes,
		DownBytes:      run.DownBytes,
		BestAcc:        run.BestAcc(),
		FinalAcc:       run.FinalAcc(),
		Retiers:        run.Retiers,
		TierMigrations: run.TierMigrations,
		EdgeFolds:      run.EdgeFolds,
		EdgeStaleness:  run.EdgeStaleness,
		Series:         seriesFromRun(key, run),
	}
}

// MarshalJSON serializes a series with points as [x, y] pairs, through the
// same conversion artifact-level series use.
func (s Series) MarshalJSON() ([]byte, error) { return json.Marshal(s.json()) }

func (t *Table) json() jsonArtifact {
	rows := make([][]jsonCell, len(t.Rows))
	for i, row := range t.Rows {
		rows[i] = make([]jsonCell, len(row))
		for j, c := range row {
			rows[i][j] = jsonCell{Text: c.Text, Value: c.Value}
		}
	}
	return jsonArtifact{Kind: "table", Caption: t.Caption, Header: t.Header, Rows: rows}
}

func (s Series) json() jsonArtifact {
	pts := make([][2]float64, len(s.Pts))
	for i, p := range s.Pts {
		pts[i] = [2]float64{p.X, p.Y}
	}
	return jsonArtifact{Kind: "series", Name: s.Name, X: s.X, Y: s.Y, Points: pts}
}

func (s scalar) json() jsonArtifact {
	v := s.Value
	return jsonArtifact{Kind: "scalar", Name: s.Name, Value: &v, Unit: s.Unit}
}

func (n note) json() jsonArtifact { return jsonArtifact{Kind: "note", Text: n.Text} }
