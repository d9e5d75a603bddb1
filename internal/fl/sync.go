package fl

// The hierarchical synchronization hook. A flat run's engine owns its
// global model outright; in an edge topology each edge's engine
// additionally pushes its model up to a cloud folder and occasionally
// adopts the merged result. Syncer is that seam: an observer that, right
// after each of the engine's own folds, may hand back events to emit (the
// cloud's EdgeFoldEvent) and a merged model to rebase onto. Runs with no
// Syncer attached take a byte-identical fast path, which is what keeps the
// bit-pinned flat goldens valid.

// FoldInfo describes one completed engine fold, as handed to Syncers.
type FoldInfo struct {
	Time float64 // the run's clock
	// Global is the fold's resulting model. Shared with the engine:
	// read-only, valid only until the next fold — a Syncer that retains it
	// must copy (the edge uplink encodes it immediately).
	Global []float64
}

// SyncDirective is a Syncer's response to a fold.
type SyncDirective struct {
	// Rebase, when non-nil, is a model the update rule must adopt as its
	// new server-side state before training continues (the cloud's merged
	// model). The rule must implement Rebaser; the engine fails the run
	// otherwise. The slice is owned by the caller after the rebase copies
	// from it.
	Rebase []float64
	// Events are emitted into the run's event stream, after the fold's
	// TierFoldEvent and before any rebase — EdgeFoldEvents describing cloud
	// activity this fold triggered or delivered.
	Events []Event
}

// Syncer is an observer capability: observers that also implement Syncer
// intervene after every engine fold. AfterFold runs on the engine's clock
// goroutine (same discipline as any fabric callback) and must not advance
// the clock or draw from the run's RNG streams.
type Syncer interface {
	Observer
	AfterFold(f FoldInfo) SyncDirective
}
