package report

import (
	"fmt"
	"strings"
)

// text renders the human-readable report. Each artifact contributes its
// own self-contained block (data-only artifacts contribute nothing), so
// rendering is a pure concatenation — no newline patch-ups — and calling
// it repeatedly yields identical bytes.
func text(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n\n", r.ID, r.Title)
	for _, a := range r.Artifacts {
		b.WriteString(a.text())
	}
	return b.String()
}

// String makes a Report print as its text rendering.
func (r *Report) String() string { return text(r) }
