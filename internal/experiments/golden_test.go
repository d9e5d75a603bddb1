package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// update regenerates the golden files from the current renderer:
//
//	go test ./internal/experiments -run TestGoldenText -update
//
// Only do this for a deliberate output change: every registry id's
// tiny-preset text report is pinned byte for byte in testdata/<id>.golden,
// so any change that moves a cell of any experiment shows up here.
var update = flag.Bool("update", false, "rewrite golden files from current output")

type tinyResult struct {
	rep *Report
	err error
}

// tinyBatch runs every registry id at the tiny preset as one concurrent
// batch, one goroutine per experiment the way fedsim -exp all does, once
// per test binary: cells that
// several experiments request are simulated once by the scheduler's shared
// cache. TestGoldenText and the per-experiment tests all read from it.
var tinyBatch = sync.OnceValue(func() map[string]tinyResult {
	ids := IDs()
	results := make([]tinyResult, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i].rep, results[i].err = RunByID(id, tiny)
		}()
	}
	wg.Wait()
	out := make(map[string]tinyResult, len(ids))
	for i, id := range ids {
		out[id] = results[i]
	}
	return out
})

// tinyReport is experiment id's report from the tiny batch.
func tinyReport(t *testing.T, id string) *Report {
	t.Helper()
	if testing.Short() {
		t.Skip("full artifact regeneration; the -race -short CI pass covers the scheduler tests")
	}
	r := tinyBatch()[id]
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.rep
}

func TestGoldenText(t *testing.T) {
	if testing.Short() {
		t.Skip("full artifact regeneration; the -race -short CI pass covers the scheduler tests")
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			got := tinyReport(t, id).String()
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Fatalf("%s text output diverged from golden (len %d vs %d):\n--- got ---\n%s\n--- want ---\n%s",
					id, len(got), len(want), got, want)
			}
		})
	}
	// A golden whose experiment left the registry pins nothing; it must
	// leave with it.
	paths, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		id := strings.TrimSuffix(filepath.Base(path), ".golden")
		if _, ok := Registry[id]; !ok {
			t.Errorf("%s pins %q, which is not in the registry; delete it", path, id)
		}
	}
}
