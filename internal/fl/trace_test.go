package fl

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite the trace goldens")

// goldenCfg is the pinned tiny configuration: small enough to run every
// method in seconds, large enough to exercise tier profiling, the TiFL
// accuracy refresh (interval 10 < rounds), FedProx's variable epochs,
// over-selection trimming and the async staleness discount.
func goldenCfg() RunConfig {
	return RunConfig{
		Rounds:          12,
		ClientsPerRound: 5,
		LocalEpochs:     2,
		BatchSize:       8,
		Lambda:          0.4,
		LearningRate:    0.01,
		NumTiers:        5,
		EvalEvery:       2,
		Seed:            3,
	}
}

// TestTraceLine pins the line format: node and kind first, then the
// event's fields; the model and the partition are left out, a non-finite
// Result value is a string, and any other non-finite value still yields a
// line. Every line decodes and encodes again to the same bytes, except the
// line that carries an encoding error, which the decoder refuses.
func TestTraceLine(t *testing.T) {
	for _, c := range []struct {
		node int
		ev   Event
		want string
	}{
		{0, StartEvent{Method: "FedAT", Dataset: "fashionlike"},
			`{"Node":0,"Kind":"start","Method":"FedAT","Dataset":"fashionlike"}`},
		{0, RoundStartEvent{&roundStart{Tier: 1, Round: 3, Time: 2.5, Clients: []int{4, 7}}},
			`{"Node":0,"Kind":"round","Tier":1,"Round":3,"Time":2.5,"Clients":[4,7]}`},
		{2, ClientDoneEvent{Client: 4, Tier: 1, Time: 9, Dropped: true},
			`{"Node":2,"Kind":"done","Client":4,"Tier":1,"Time":9,"Dropped":true}`},
		{1, TierFoldEvent{&tierFold{Tier: 0, Round: 4, Time: 10, Kept: 2, Global: []float64{1, 2}}},
			`{"Node":1,"Kind":"fold","Tier":0,"Round":4,"Time":10,"Kept":2}`},
		{0, EvalEvent{Round: 4, Time: 10, Result: Result{Acc: 0.5, Loss: 1.25, Variance: 0.01}, UpBytes: 100, DownBytes: 200},
			`{"Node":0,"Kind":"eval","Round":4,"Time":10,"Result":{"Acc":0.5,"Loss":1.25,"Variance":0.01},"UpBytes":100,"DownBytes":200}`},
		{0, EvalEvent{Round: 6, Time: 12, Result: Result{Acc: math.NaN(), Loss: math.Inf(1), Variance: math.Inf(-1)}},
			`{"Node":0,"Kind":"eval","Round":6,"Time":12,"Result":{"Acc":"NaN","Loss":"+Inf","Variance":"-Inf"},"UpBytes":0,"DownBytes":0}`},
		{3, retierEvent{Round: 8, Time: 20, Migrations: 1},
			`{"Node":3,"Kind":"retier","Round":8,"Time":20,"Migrations":1}`},
		{0, ClientDoneEvent{Client: 1, Time: math.Inf(1)},
			`{"Node":0,"Kind":"done","Error":"json: unsupported value: +Inf"}`},
		{-1, EdgeFoldEvent{Edge: 1, Round: 2, Time: 30, Staleness: 1, Members: 2},
			`{"Node":-1,"Kind":"edgefold","Edge":1,"Round":2,"Time":30,"Staleness":1,"Members":2}`},
		{2, EndEvent{Round: 12, Time: 4.5, UpBytes: 917248, DownBytes: 0},
			`{"Node":2,"Kind":"end","Round":12,"Time":4.5,"UpBytes":917248,"DownBytes":0}`},
	} {
		got := TraceLine(c.node, c.ev)
		if string(got) != c.want {
			t.Errorf("TraceLine(%d, %T):\n got %s\nwant %s", c.node, c.ev, got, c.want)
		}
		if !json.Valid(got) {
			t.Errorf("TraceLine(%d, %T) is not JSON: %s", c.node, c.ev, got)
		}
		node, ev, err := decodeTraceLine(got)
		if strings.Contains(c.want, `"Error"`) {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("decoding %s: error %v, want one naming the line", got, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("decoding %s: %v", got, err)
		} else if again := TraceLine(node, ev); !bytes.Equal(again, got) {
			t.Errorf("%T does not survive a round trip:\n got %s\nwant %s", c.ev, again, got)
		}
	}
	bogus := `{"Node":0,"Kind":"bogus"}`
	if _, _, err := decodeTraceLine([]byte(bogus)); err == nil || !strings.Contains(err.Error(), bogus) {
		t.Errorf("decoding an unknown kind: error %v, want one naming the line", err)
	}
}

// TestReadTrace: the reader skips a log prefix before a line's first '{'
// and a line with no '{', folds each node's lines into that node's record,
// and refuses a line that does not decode (quoting it) and a node whose
// lines do not run from one start line to one end line (naming it).
func TestReadTrace(t *testing.T) {
	line := func(node int, ev Event) string { return string(TraceLine(node, ev)) + "\n" }
	start0, start1 := line(0, StartEvent{Method: "FedAT", Dataset: "fashion"}), line(1, StartEvent{Method: "FedAvg", Dataset: "cifar"})
	eval0 := line(0, EvalEvent{Round: 2, Time: 5, Result: Result{Acc: 0.5, Loss: 1}, UpBytes: 10, DownBytes: 20})
	retier1 := line(1, retierEvent{Round: 1, Time: 3, Migrations: 2})
	end0, end1 := line(0, EndEvent{Round: 3, Time: 7.5, UpBytes: 15, DownBytes: 30}), line(1, EndEvent{Round: 1, Time: 4})
	run0 := metrics.Run{Method: "FedAT", Dataset: "fashion",
		Points:  []metrics.Point{{Round: 2, Time: 5, UpBytes: 10, DownBytes: 20, Acc: 0.5, Loss: 1}},
		UpBytes: 15, DownBytes: 30, GlobalRounds: 3, EndTime: 7.5}
	run1 := metrics.Run{Method: "FedAvg", Dataset: "cifar", GlobalRounds: 1, EndTime: 4, Retiers: 1, TierMigrations: 2}
	cut := `{"Node":0,"Kind":"end","Round":3,"Ti`
	for _, c := range []struct {
		name  string
		trace string
		want  map[int]metrics.Run
		err   string // a substring the error must contain; "" wants none
	}{
		{"plain", start0 + eval0 + end0, map[int]metrics.Run{0: run0}, ""},
		{"timestamp prefix", "2026/01/02 03:04:05 " + start0 + "2026/01/02 03:04:05 " + eval0 + "2026/01/02 03:04:05 " + end0,
			map[int]metrics.Run{0: run0}, ""},
		{"chatter line", "fed server: client 0 registered\n" + start0 + "fed server: 3 clients registered\n" + eval0 + end0 + "done\n",
			map[int]metrics.Run{0: run0}, ""},
		{"last line without a newline", start0 + eval0 + strings.TrimSuffix(end0, "\n"), map[int]metrics.Run{0: run0}, ""},
		{"two interleaved nodes", start1 + start0 + retier1 + eval0 + end1 + end0, map[int]metrics.Run{0: run0, 1: run1}, ""},
		{"cut mid-object", start0 + eval0 + cut, nil, cut},
		{"unknown kind", start0 + `{"Node":0,"Kind":"bogus"}` + "\n" + end0, nil, `{"Node":0,"Kind":"bogus"}`},
		{"no end", start0 + start1 + eval0 + end0 + retier1, nil, "node 1: no end line"},
		{"no start", start0 + retier1 + end0 + end1, nil, "node 1: first line is retier, want start"},
		{"a second start", start0 + start0 + end0, nil, "node 0: a second start line"},
		{"a line after the end", start0 + end0 + eval0, nil, "node 0: eval line after the end line"},
	} {
		t.Run(c.name, func(t *testing.T) {
			runs, err := ReadTrace(strings.NewReader(c.trace))
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("error %v, want one containing %s", err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(runs) != len(c.want) {
				t.Fatalf("records for nodes %v, want %d nodes", slices.Sorted(maps.Keys(runs)), len(c.want))
			}
			for node, want := range c.want {
				if g, w := fmt.Sprintf("%+v", runs[node]), fmt.Sprintf("%+v", &want); g != w {
					t.Errorf("node %d:\n got %s\nwant %s", node, g, w)
				}
			}
		})
	}
}

// TestTraceGoldens pins every registry method's full event stream at
// goldenCfg, byte for byte, at GOMAXPROCS 1 and 4: a change to cohort
// selection shows on the first line. The trace is also the run's record:
// each golden opens with a start line and closes with an end line, and the
// metrics.Run that Run returns must equal the record the golden holds (read
// by recordOf, not by Recorder). The lines carry Loss in decimal, so they
// hold on amd64 hosts with FMA (DESIGN §2). Regenerate with -update.
func TestTraceGoldens(t *testing.T) {
	dir := filepath.Join("testdata", "traces")
	for _, name := range MethodNames() {
		path := filepath.Join(dir, name+".jsonl")
		for _, procs := range []int{1, 4} {
			var buf bytes.Buffer
			var run *metrics.Run
			withProcs(procs, func() {
				env := testEnv(t, 2, goldenCfg())
				var err error
				if run, err = Methods[name].Run(env, Trace(&buf, 0)); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			})
			if *updateGolden && procs == 1 {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read trace golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s at GOMAXPROCS %d: trace diverged from %s:\n%s", name, procs, path, firstDiff(buf.Bytes(), want))
			}
			rec, err := recordOf(want)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			read, err := ReadTrace(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			// %v writes each float as its shortest round-trip decimal, so
			// the strings differ whenever any field's bits do.
			g := fmt.Sprintf("%+v", *run)
			if w := fmt.Sprintf("%+v", *rec); g != w {
				t.Errorf("%s at GOMAXPROCS %d: the run's record differs from the one %s holds:\n got %s\nwant %s", name, procs, path, g, w)
			}
			if len(read) != 1 || read[0] == nil {
				t.Errorf("%s: ReadTrace returned nodes %v, want node 0 alone", path, slices.Collect(maps.Keys(read)))
			} else if r := fmt.Sprintf("%+v", *read[0]); r != g {
				t.Errorf("%s at GOMAXPROCS %d: ReadTrace of %s differs from the run's record:\n got %s\nwant %s", name, procs, path, r, g)
			}
		}
	}
}

// firstDiff reports the first line where got and want differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// recordOf reads the run record a trace holds, field by field: the start
// line names the run, each eval line is a point, retier and edge-fold lines
// are tallied, and the end line holds the totals. It shares no code with
// Recorder, so a fault in that fold cannot cancel against itself.
func recordOf(data []byte) (*metrics.Run, error) {
	var evs []Event
	for line := range bytes.Lines(data) {
		_, ev, err := decodeTraceLine(bytes.TrimSuffix(line, []byte("\n")))
		if err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
	if len(evs) == 0 {
		return nil, fmt.Errorf("empty trace")
	}
	if _, ok := evs[0].(StartEvent); !ok {
		return nil, fmt.Errorf("trace opens with %T, want a start line", evs[0])
	}
	if _, ok := evs[len(evs)-1].(EndEvent); !ok {
		return nil, fmt.Errorf("trace closes with %T, want an end line", evs[len(evs)-1])
	}
	r := new(metrics.Run)
	for _, ev := range evs {
		switch e := ev.(type) {
		case StartEvent:
			r.Method = e.Method
			r.Dataset = e.Dataset
		case EvalEvent:
			var p metrics.Point
			p.Round = e.Round
			p.Time = e.Time
			p.UpBytes = e.UpBytes
			p.DownBytes = e.DownBytes
			p.Acc = e.Result.Acc
			p.Loss = e.Result.Loss
			p.Var = e.Result.Variance
			r.Points = append(r.Points, p)
		case retierEvent:
			r.Retiers++
			r.TierMigrations += e.Migrations
		case EdgeFoldEvent:
			r.EdgeFolds++
			r.EdgeStaleness += e.Staleness
		case EndEvent:
			r.GlobalRounds = e.Round
			r.EndTime = e.Time
			r.UpBytes = e.UpBytes
			r.DownBytes = e.DownBytes
		}
	}
	return r, nil
}
