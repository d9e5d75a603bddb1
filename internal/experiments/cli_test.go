package experiments_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/cli"
)

// TestFedsimJSON is fedsim's machine-readable path end to end: -exp table1
// -preset tiny -format json prints one valid JSON envelope on stdout, with
// the progress framing kept off it. It is a CLI row that lives here because
// the cell cache is per process: in this binary the tiny batch has already
// simulated table1's grid, so the row costs a render, not a second grid.
func TestFedsimJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates table1 when run alone; skipped in -short")
	}
	var out, errs bytes.Buffer
	code := cli.Sim(context.Background(), []string{"-exp", "table1", "-preset", "tiny", "-format", "json"}, &out, &errs)
	if code != 0 || !json.Valid(out.Bytes()) {
		t.Fatalf("exited %d, valid JSON %v; stderr:\n%s", code, json.Valid(out.Bytes()), errs.String())
	}
}
