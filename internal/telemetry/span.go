package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Stage names one segment of a request's pipeline, in request order. A Span
// keeps one duration per stage on each of its two clocks.
type Stage uint8

const (
	// StageQueue is serve-layer residency: enqueue to worker dispatch.
	StageQueue Stage = iota
	// StageEncode is the host-side sequence serialization (core/csd).
	StageEncode
	// StageTransfer is SSD→FPGA data movement: the simulated DMA time, and
	// on the host the buffer writes and DMA bookkeeping.
	StageTransfer
	// StageCompute is FPGA kernel execution: the simulated kernel time, and
	// on the host the cost of running the kernel pipeline model.
	StageCompute
	// StageVerdict is the detector's threshold/mitigation logic.
	StageVerdict
	// StageObserve is the cost of observability itself: metric
	// observations, span and trace records, and event-log calls made on
	// behalf of the request.
	StageObserve

	// NumStages bounds the Stage enum.
	NumStages
)

var stageNames = [NumStages]string{
	"queue", "encode", "transfer", "compute", "verdict", "observe",
}

// String returns the stage's label ("queue", "encode", ...).
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Stages holds one duration per Stage. It marshals as a JSON object of
// nanoseconds keyed by stage name, omitting stages that recorded nothing.
type Stages [NumStages]time.Duration

// Total sums the stages.
func (s Stages) Total() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// MarshalJSON renders the nonzero stages as {"transfer":39000,...}.
func (s Stages) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for st, d := range s {
		if d == 0 {
			continue
		}
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, stageNames[st])
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(d), 10)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON parses the MarshalJSON form; an unknown stage name is an
// error.
func (s *Stages) UnmarshalJSON(data []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*s = Stages{}
next:
	for name, ns := range m {
		for st, known := range stageNames {
			if name == known {
				s[st] = time.Duration(ns)
				continue next
			}
		}
		return fmt.Errorf("telemetry: unknown stage %q", name)
	}
	return nil
}

// Span is the one per-request record: it explains a request's latency on
// both clocks. Sim holds simulated device time (the engine stamps transfer
// and compute from its timing model); Wall holds host wall time (queue wait,
// encode, the host cost of transfer and compute, verdict, observe).
//
// The creator — the detector for a window, else the scheduler — stashes the
// span in the request context; the scheduler stamps Job, Device and queue
// wait, the engine stamps its stages, and the creator logs it when done.
// Each stage hands the request to the next through a channel or call, so
// Span needs no lock — it is NOT safe for truly concurrent writers. A nil
// *Span is valid and records nothing.
type Span struct {
	// Name identifies the request kind (e.g. "window", "predict").
	Name string `json:"name"`
	// Job is the trace correlation ID shared with the request's timeline
	// events and structured events (internal/trace job ID); 0 when tracing
	// is off.
	Job int64 `json:"job,omitempty"`
	// Device is the registry ID of the serving device, stamped by the
	// scheduler at dispatch; empty when the request never went through one.
	Device string `json:"device,omitempty"`
	// Start stamps span creation (request admission).
	Start time.Time `json:"start"`
	// Sim is simulated device time per stage.
	Sim Stages `json:"sim_ns"`
	// Wall is host wall time per stage.
	Wall Stages `json:"wall_ns"`
}

// Add attributes host wall time d to the stage, accumulating across calls.
func (s *Span) Add(st Stage, d time.Duration) {
	if s == nil || st >= NumStages {
		return
	}
	s.Wall[st] += d
}

// StageTimer measures one stage interval on the host clock. It is a value
// type: Begin/End cost two clock reads and no allocation.
type StageTimer struct {
	s  *Span
	st Stage
	t0 time.Time
}

// Begin starts timing a stage. On a nil span the returned timer is inert
// and End is free, so instrumentation sites need no branches.
func (s *Span) Begin(st Stage) StageTimer {
	if s == nil {
		return StageTimer{}
	}
	return StageTimer{s: s, st: st, t0: time.Now()}
}

// End stops the timer and adds the elapsed interval to the stage's Wall.
func (t StageTimer) End() {
	if t.s != nil {
		t.s.Add(t.st, time.Since(t.t0))
	}
}

// String renders the span on one line: "window#3@csd-000: sim transfer=39µs
// compute=215µs (254µs); wall queue=1.2µs compute=600µs (610µs)".
func (s *Span) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	if s.Job != 0 {
		fmt.Fprintf(&b, "#%d", s.Job)
	}
	if s.Device != "" {
		fmt.Fprintf(&b, "@%s", s.Device)
	}
	b.WriteString(":")
	writeStages(&b, " sim", s.Sim)
	writeStages(&b, "; wall", s.Wall)
	return b.String()
}

func writeStages(b *strings.Builder, clock string, st Stages) {
	b.WriteString(clock)
	for i, d := range st {
		if d != 0 {
			fmt.Fprintf(b, " %s=%s", Stage(i), d)
		}
	}
	fmt.Fprintf(b, " (%s)", st.Total())
}

type spanCtxKey struct{}

// WithSpan returns a context carrying the span, so lower layers (scheduler,
// engine, event log) can stamp and read the request record without the
// Inferencer interface knowing about telemetry.
func WithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFrom returns the span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// SpanLog retains the most recent completed spans in a fixed ring — enough
// to answer "what did the last requests spend their time on" without
// unbounded memory. A nil *SpanLog ignores Add, so callers can thread an
// optional log without branching.
type SpanLog struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	total int64
}

// NewSpanLog builds a log retaining the last capacity spans (<=0: 128).
func NewSpanLog(capacity int) *SpanLog {
	if capacity <= 0 {
		capacity = 128
	}
	return &SpanLog{buf: make([]Span, 0, capacity)}
}

// Add appends a completed span, evicting the oldest when full.
func (l *SpanLog) Add(s Span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, s)
		return
	}
	l.buf[l.next] = s
	l.next = (l.next + 1) % len(l.buf)
}

// Snapshot returns the retained spans, oldest first.
func (l *SpanLog) Snapshot() []Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Span, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out
}

// Total counts all spans ever added, including evicted ones.
func (l *SpanLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
