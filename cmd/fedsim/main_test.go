package main

import "testing"

// TestParseTopology: -topology is flat or edge:K with a whole K >= 1 and
// nothing after it — fmt.Sscanf used to read "edge:2x7" as edge:2.
func TestParseTopology(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int
		ok   bool
	}{
		{"flat", 0, true},
		{"", 0, true},
		{"edge:1", 1, true},
		{"edge:4", 4, true},
		{"edge:0", 0, false},
		{"edge:-1", 0, false},
		{"edge:2x7", 0, false},
		{"edge:3 junk", 0, false},
		{"edge:", 0, false},
		{"edges:2", 0, false},
	} {
		got, err := parseTopology(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("parseTopology(%q) = %d, %v; want %d, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}
