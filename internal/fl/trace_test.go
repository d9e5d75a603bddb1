package fl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tiering"
)

// TestTraceLine pins the line format: node and kind first, then the
// event's fields; the model and the partition are left out, a non-finite
// Result value is a string, and any other non-finite value still yields a
// line.
func TestTraceLine(t *testing.T) {
	for _, c := range []struct {
		node int
		ev   Event
		want string
	}{
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
	} {
		got := TraceLine(c.node, c.ev)
		if string(got) != c.want {
			t.Errorf("TraceLine(%d, %T):\n got %s\nwant %s", c.node, c.ev, got, c.want)
		}
		if !json.Valid(got) {
			t.Errorf("TraceLine(%d, %T) is not JSON: %s", c.node, c.ev, got)
		}
	}
}

// TestTraceGoldens pins every registry method's full event stream at
// goldenCfg, byte for byte, at GOMAXPROCS 1 and 4 — a finer net than
// golden_runs.json: a change to cohort selection shows on the first line.
// The lines carry Loss in decimal, so they hold on the same hosts as
// golden_runs.json. Regenerate with -update.
func TestTraceGoldens(t *testing.T) {
	dir := filepath.Join("testdata", "traces")
	for _, name := range MethodNames() {
		path := filepath.Join(dir, name+".jsonl")
		for _, procs := range []int{1, 4} {
			var buf bytes.Buffer
			withProcs(procs, func() {
				env := testEnv(t, 2, goldenCfg())
				if _, err := Methods[name].Run(env, Trace(&buf, 0)); err != nil {
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
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read trace golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s at GOMAXPROCS %d: trace diverged from %s:\n%s", name, procs, path, firstDiff(buf.Bytes(), want))
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
