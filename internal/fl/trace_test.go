package fl

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/tiering"
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
		{0, RoundStartEvent{Tier: 1, Round: 3, Time: 2.5, Clients: []int{4, 7}},
			`{"Node":0,"Kind":"round","Tier":1,"Round":3,"Time":2.5,"Clients":[4,7]}`},
		{2, ClientDoneEvent{Client: 4, Tier: 1, Time: 9, Dropped: true},
			`{"Node":2,"Kind":"done","Client":4,"Tier":1,"Time":9,"Dropped":true}`},
		{1, TierFoldEvent{Tier: 0, Round: 4, Time: 10, Kept: 2, Global: []float64{1, 2}},
			`{"Node":1,"Kind":"fold","Tier":0,"Round":4,"Time":10,"Kept":2}`},
		{0, EvalEvent{Round: 4, Time: 10, Result: Result{Acc: 0.5, Loss: 1.25, Variance: 0.01}, UpBytes: 100, DownBytes: 200},
			`{"Node":0,"Kind":"eval","Round":4,"Time":10,"Result":{"Acc":0.5,"Loss":1.25,"Variance":0.01},"UpBytes":100,"DownBytes":200}`},
		{0, EvalEvent{Round: 6, Time: 12, Result: Result{Acc: math.NaN(), Loss: math.Inf(1), Variance: math.Inf(-1)}},
			`{"Node":0,"Kind":"eval","Round":6,"Time":12,"Result":{"Acc":"NaN","Loss":"+Inf","Variance":"-Inf"},"UpBytes":0,"DownBytes":0}`},
		{3, RetierEvent{Round: 8, Time: 20, Migrations: 1, Tiers: &tiering.Tiers{}},
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
			evs, err := readTrace(want)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			rec, err := recordOf(evs)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			// %v writes each float as its shortest round-trip decimal, so
			// the strings differ whenever any field's bits do.
			if g, w := fmt.Sprintf("%+v", *run), fmt.Sprintf("%+v", *rec); g != w {
				t.Errorf("%s at GOMAXPROCS %d: the run's record differs from the one %s holds:\n got %s\nwant %s", name, procs, path, g, w)
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

// tracedEvent is one decoded trace line.
type tracedEvent struct {
	node int
	ev   Event
}

// readTrace decodes a trace, one TraceLine per line.
func readTrace(data []byte) ([]tracedEvent, error) {
	var out []tracedEvent
	for line := range bytes.Lines(data) {
		node, ev, err := decodeTraceLine(bytes.TrimSuffix(line, []byte("\n")))
		if err != nil {
			return nil, err
		}
		out = append(out, tracedEvent{node, ev})
	}
	return out, nil
}

// decodeTraceLine reverses TraceLine. The model and the partition, which
// the line leaves out, decode as nil. A line that carries an encoding
// error, or names no known kind, is an error that quotes it.
func decodeTraceLine(line []byte) (int, Event, error) {
	var head struct {
		Node  int
		Kind  string
		Error *string
	}
	if err := json.Unmarshal(line, &head); err != nil {
		return 0, nil, fmt.Errorf("trace line %s: %w", line, err)
	}
	if head.Error != nil {
		return 0, nil, fmt.Errorf("trace line %s: the event did not encode", line)
	}
	decode, ok := traceKinds[head.Kind]
	if !ok {
		return 0, nil, fmt.Errorf("trace line %s: unknown kind %q", line, head.Kind)
	}
	ev, err := decode(line)
	if err != nil {
		return 0, nil, fmt.Errorf("trace line %s: %w", line, err)
	}
	return head.Node, ev, nil
}

// traceKinds decodes a line's event by its kind.
var traceKinds = map[string]func([]byte) (Event, error){
	StartEvent{}.kind():      decodeAs[StartEvent],
	RoundStartEvent{}.kind(): decodeAs[RoundStartEvent],
	ClientDoneEvent{}.kind(): decodeAs[ClientDoneEvent],
	TierFoldEvent{}.kind():   decodeAs[TierFoldEvent],
	EvalEvent{}.kind():       decodeEval,
	RetierEvent{}.kind():     decodeAs[RetierEvent],
	EdgeFoldEvent{}.kind():   decodeAs[EdgeFoldEvent],
	EndEvent{}.kind():        decodeAs[EndEvent],
}

func decodeAs[E Event](line []byte) (Event, error) {
	var e E
	err := json.Unmarshal(line, &e)
	return e, err
}

// decodeEval reads the Result's values as traceFloat writes them.
func decodeEval(line []byte) (Event, error) {
	var e struct {
		EvalEvent
		Result struct{ Acc, Loss, Variance traceNum }
	}
	err := json.Unmarshal(line, &e)
	e.EvalEvent.Result = Result{Acc: float64(e.Result.Acc), Loss: float64(e.Result.Loss), Variance: float64(e.Result.Variance)}
	return e.EvalEvent, err
}

// traceNum is a float64 read from a JSON number or from the string "NaN",
// "+Inf" or "-Inf".
type traceNum float64

func (f *traceNum) UnmarshalJSON(b []byte) error {
	v, err := strconv.Unquote(string(b))
	if err != nil { // a number
		return json.Unmarshal(b, (*float64)(f))
	}
	x, err := strconv.ParseFloat(v, 64)
	*f = traceNum(x)
	return err
}

// recordOf reads the run record a trace holds, field by field: the start
// line names the run, each eval line is a point, retier and edge-fold lines
// are tallied, and the end line holds the totals. It shares no code with
// Recorder, so a fault in that fold cannot cancel against itself.
func recordOf(evs []tracedEvent) (*metrics.Run, error) {
	if len(evs) == 0 {
		return nil, fmt.Errorf("empty trace")
	}
	if _, ok := evs[0].ev.(StartEvent); !ok {
		return nil, fmt.Errorf("trace opens with %T, want a start line", evs[0].ev)
	}
	if _, ok := evs[len(evs)-1].ev.(EndEvent); !ok {
		return nil, fmt.Errorf("trace closes with %T, want an end line", evs[len(evs)-1].ev)
	}
	r := new(metrics.Run)
	for _, te := range evs {
		switch e := te.ev.(type) {
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
		case RetierEvent:
			r.Retiers++
			r.TierMigrations += e.Migrations
		case EdgeFoldEvent:
			r.EdgeFolds++
			r.EdgeStaleness += e.Staleness
		case EndEvent:
			r.GlobalRounds = e.Round
			r.UpBytes = e.UpBytes
			r.DownBytes = e.DownBytes
		}
	}
	return r, nil
}
