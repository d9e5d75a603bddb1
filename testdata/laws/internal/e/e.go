// Package e holds the export law's cases. It sits under internal/, where
// that law applies; TestDeletionLawsFixture lists what it reports.
package e

// OwnOnly is called only inside e: the gate reports it.
func OwnOnly() int { return 1 }

// TestOnly is called inside e and from p's tests, and a test is no
// taker: the gate reports it.
func TestOnly() int { return 2 }

// Result is named by no other package, only by Run's signature, which
// keeps it exported.
type Result struct{ N int }

// Sink is named by no other package and by no exported signature, but
// cmd/app's bin implements it.
type Sink interface{ Put(n int) }

// Run is called only from the main package in cmd/app.
func Run(v any) *Result {
	r := &Result{N: OwnOnly() + TestOnly()}
	if s, ok := v.(Sink); ok {
		s.Put(r.N)
	}
	return r
}
