package fl

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strconv"

	"repro/internal/metrics"
)

// The run event stream. Every method emits the same event kinds as it
// executes, no matter how its policies are composed; observers subscribe to
// the stream instead of being wired into each method's loop. The stream is
// the run's one record: a run opens with a StartEvent and, unless it
// failed, closes with an EndEvent, and the Recorder that produces the
// metrics.Run every method returns is just the first subscriber — callers
// can attach more via Method.Run's variadic observers to trace folds,
// collect per-client statistics or stream progress without touching the
// engine.
//
// Events are observations only: emitting them never draws randomness,
// reserves link capacity or advances the virtual clock, so attaching an
// observer cannot perturb a run. They come in two ownership classes. A
// RoundStartEvent or TierFoldEvent — the two kinds every round emits — is
// engine-owned: it points at a record the run rewrites for the next round
// or fold, together with the engine's buffers it carries (the cohort, the
// global model), so the whole event is valid only during OnEvent, is never
// to be mutated, and an observer that retains any of it copies the fields
// it needs. Emitting one allocates nothing. Every other kind is a plain
// value an observer may keep.

// Event is one occurrence in a training run. The concrete types below are
// the full set; observers type-switch on them. kind names the type in a
// trace line.
type Event interface{ kind() string }

// StartEvent opens a run's stream, before the first cohort is dispatched.
type StartEvent struct {
	Method  string // the method's display name
	Dataset string
}

// RoundStartEvent fires when a cohort has been selected and is about to
// train. It is engine-owned (valid only during OnEvent); its fields are
// roundStart's.
type RoundStartEvent struct{ *roundStart }

// roundStart is the record a RoundStartEvent points at, one per run,
// filled just before each emit. Tier is the training tier (-1 when the
// selecting policy is untiered — population-wide sampling or the
// wait-free client loops).
type roundStart struct {
	Tier  int
	Round int     // global update count when the round started
	Time  float64 // virtual seconds
	// Clients are the selected client ids, the selecting loop's buffer:
	// it picks its next cohort into the same slice.
	Clients []int
}

// ClientDoneEvent fires when one client's local round has been resolved:
// either its update arrived at the server or it dropped mid-round.
type ClientDoneEvent struct {
	Client  int
	Tier    int
	Time    float64 // server arrival (or the time the loss was discovered)
	Dropped bool
}

// TierFoldEvent fires after the update rule folded a batch of client
// updates into the global state — one global update. It is engine-owned
// (valid only during OnEvent); its fields are tierFold's.
type TierFoldEvent struct{ *tierFold }

// tierFold is the record a TierFoldEvent points at, one per run, filled
// just before each emit.
type tierFold struct {
	Tier  int
	Round int     // global update count after the fold
	Time  float64 // virtual seconds
	Kept  int     // client updates that counted
	// Global is the global model right after this fold; some update rules
	// reuse the buffer on the next fold. The live transport server uses it
	// to report the final trained model.
	Global []float64 `json:"-"`
}

// EvalEvent fires when the engine evaluated the global model at the
// configured cadence.
type EvalEvent struct {
	Round     int
	Time      float64
	Result    Result
	UpBytes   int64 // cumulative communication at evaluation time
	DownBytes int64
}

// EdgeFoldEvent fires when a hierarchical topology folded edge models into
// the cloud model. In a simulated hierarchy it is emitted into the
// triggering edge's event stream right after the TierFoldEvent whose push
// caused the cloud fold; on the live fabric each edge emits it when the
// root's merged model arrives. The Recorder tallies these into
// metrics.Run.EdgeFolds.
type EdgeFoldEvent struct {
	Edge  int     // edge id whose push triggered (or delivered) the fold
	Round int     // cloud fold count after this fold
	Time  float64 // the observing run's clock (virtual or wall seconds)
	// Staleness is how many cloud folds the triggering edge lagged behind:
	// cloud epochs elapsed since that edge last adopted the merged model.
	Staleness float64
	// Members is the number of edge models the fold averaged over.
	Members int
}

// retierEvent fires when the engine re-partitioned the tiers at runtime
// (RunConfig.RetierEvery) from EWMA-smoothed observed latencies. It fires
// every retier pass, even when hysteresis held every client in place
// (Migrations 0).
type retierEvent struct {
	Round      int
	Time       float64
	Migrations int // clients whose tier changed in this pass
}

// EndEvent closes the stream of a run that did not fail: the global update
// count, the clock and the communication totals when the run stopped.
type EndEvent struct {
	Round     int
	Time      float64
	UpBytes   int64
	DownBytes int64
}

func (StartEvent) kind() string      { return "start" }
func (EndEvent) kind() string        { return "end" }
func (RoundStartEvent) kind() string { return "round" }
func (ClientDoneEvent) kind() string { return "done" }
func (TierFoldEvent) kind() string   { return "fold" }
func (EvalEvent) kind() string       { return "eval" }
func (retierEvent) kind() string     { return "retier" }
func (EdgeFoldEvent) kind() string   { return "edgefold" }

// TraceLine encodes ev as one JSON object without a line terminator: the
// emitting node (0 for a flat run, the edge id in a hierarchy, -1 for the
// cloud), the event kind, then the event's own fields, e.g.
//
//	{"Node":1,"Kind":"fold","Tier":0,"Round":7,"Time":412.5,"Kept":3}
//
// The sink stamps the node, so no event type carries one. The model and
// the partition are left out; a non-finite Result value is written as the
// string "NaN", "+Inf" or "-Inf", which encoding/json would refuse.
func TraceLine(node int, ev Event) []byte {
	line := fmt.Appendf(nil, `{"Node":%d,"Kind":%q`, node, ev.kind())
	body, err := json.Marshal(ev)
	if err != nil { // a non-finite float outside Result: keep the line
		return fmt.Appendf(line, `,"Error":%q}`, err.Error())
	}
	return append(append(line, ','), body[1:]...)
}

// Trace is an observer that writes each event to w as a TraceLine
// followed by a newline.
func Trace(w io.Writer, node int) Observer {
	return ObserverFunc(func(ev Event) { w.Write(append(TraceLine(node, ev), '\n')) })
}

// MarshalJSON encodes a Result for the trace, spelling a non-finite value
// (a diverged model's NaN or infinite loss) as a string.
func (r Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct{ Acc, Loss, Variance traceFloat }{
		traceFloat(r.Acc), traceFloat(r.Loss), traceFloat(r.Variance)})
}

// traceFloat is a float64 that encodes NaN and ±Inf as JSON strings.
type traceFloat float64

func (f traceFloat) MarshalJSON() ([]byte, error) {
	if v := float64(f); math.IsNaN(v) || math.IsInf(v, 0) {
		return strconv.AppendQuote(nil, strconv.FormatFloat(v, 'g', -1, 64)), nil
	}
	return json.Marshal(float64(f))
}

// ReadTrace reads a stream of TraceLines, such as a fedsim -trace capture
// or a fedserver log, and returns each node's run record, folded through
// the Recorder a running method uses. Text before a line's first '{' (a
// log timestamp) is skipped, and so is a line with no '{' (log chatter).
// A line that does not decode, a cut-off last line included, is an error
// that quotes it; so is a node whose lines do not open with one start line
// and close with one end line.
func ReadTrace(r io.Reader) (map[int]*metrics.Run, error) {
	runs := map[int]*metrics.Run{}
	ended := map[int]bool{}
	br := bufio.NewReader(r)
	for {
		line, readErr := br.ReadBytes('\n')
		if readErr != nil && readErr != io.EOF {
			return nil, readErr
		}
		if i := bytes.IndexByte(line, '{'); i >= 0 {
			node, ev, err := decodeTraceLine(bytes.TrimRight(line[i:], "\r\n"))
			if err != nil {
				return nil, err
			}
			run, seen := runs[node]
			_, start := ev.(StartEvent)
			switch {
			case ended[node]:
				return nil, fmt.Errorf("trace node %d: %s line after the end line", node, ev.kind())
			case !seen && !start:
				return nil, fmt.Errorf("trace node %d: first line is %s, want start", node, ev.kind())
			case seen && start:
				return nil, fmt.Errorf("trace node %d: a second start line", node)
			case !seen:
				run = new(metrics.Run)
				runs[node] = run
			}
			(*Recorder)(run).OnEvent(ev)
			if _, end := ev.(EndEvent); end {
				ended[node] = true
			}
		}
		if readErr == io.EOF {
			break
		}
	}
	for _, node := range slices.Sorted(maps.Keys(runs)) {
		if !ended[node] {
			return nil, fmt.Errorf("trace node %d: no end line", node)
		}
	}
	return runs, nil
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
	RoundStartEvent{}.kind(): decodeRoundStart,
	ClientDoneEvent{}.kind(): decodeAs[ClientDoneEvent],
	TierFoldEvent{}.kind():   decodeTierFold,
	EvalEvent{}.kind():       decodeEval,
	retierEvent{}.kind():     decodeAs[retierEvent],
	EdgeFoldEvent{}.kind():   decodeAs[EdgeFoldEvent],
	EndEvent{}.kind():        decodeAs[EndEvent],
}

func decodeAs[E Event](line []byte) (Event, error) {
	var e E
	err := json.Unmarshal(line, &e)
	return e, err
}

// decodeRoundStart and decodeTierFold decode an engine-owned kind through
// a fresh record: encoding/json cannot set the event's embedded pointer to
// an unexported type itself.
func decodeRoundStart(line []byte) (Event, error) {
	r := new(roundStart)
	err := json.Unmarshal(line, r)
	return RoundStartEvent{r}, err
}

func decodeTierFold(line []byte) (Event, error) {
	f := new(tierFold)
	err := json.Unmarshal(line, f)
	return TierFoldEvent{f}, err
}

// decodeEval reads the Result's values as traceFloat writes them: a JSON
// number, or the string "NaN", "+Inf" or "-Inf".
func decodeEval(line []byte) (Event, error) {
	var e struct {
		EvalEvent
		Result struct{ Acc, Loss, Variance json.RawMessage }
	}
	err := json.Unmarshal(line, &e)
	num := func(raw json.RawMessage) float64 {
		s := string(raw)
		if u, uerr := strconv.Unquote(s); uerr == nil {
			s = u
		}
		v, perr := strconv.ParseFloat(s, 64)
		err = cmp.Or(err, perr)
		return v
	}
	e.EvalEvent.Result = Result{Acc: num(e.Result.Acc), Loss: num(e.Result.Loss), Variance: num(e.Result.Variance)}
	return e.EvalEvent, err
}

// Observer receives the run event stream in engine-execution order (which
// for the simulator-paced methods is virtual-time order of the fold and
// eval events).
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(ev Event) { f(ev) }

// Recorder is the fold from the event stream to a run's record: the start
// event names it, each eval adds a point, retier and edge-fold events are
// tallied, and the end event stamps the totals. It is the one place events
// become a metrics.Run; convert a *Recorder with (*metrics.Run)(rec).
type Recorder metrics.Run

// OnEvent implements Observer.
func (rec *Recorder) OnEvent(ev Event) {
	switch e := ev.(type) {
	case StartEvent:
		rec.Method, rec.Dataset = e.Method, e.Dataset
	case EvalEvent:
		rec.Points = append(rec.Points, metrics.Point{
			Round:     e.Round,
			Time:      e.Time,
			UpBytes:   e.UpBytes,
			DownBytes: e.DownBytes,
			Acc:       e.Result.Acc,
			Loss:      e.Result.Loss,
			Var:       e.Result.Variance,
		})
	case retierEvent:
		rec.Retiers++
		rec.TierMigrations += e.Migrations
	case EdgeFoldEvent:
		rec.EdgeFolds++
		rec.EdgeStaleness += e.Staleness
	case EndEvent:
		rec.GlobalRounds, rec.EndTime, rec.UpBytes, rec.DownBytes = e.Round, e.Time, e.UpBytes, e.DownBytes
	}
}
