package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kfrida1/csdinf/internal/core"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/kernels"
)

// Layer names of the spans the benchmark records around its calls into
// the stack. These spans are the benchmark's own, kept in memory and
// written when the run ends; they are unrelated to internal/trace.
const (
	layerFleet  = "fleet"  // fleet.Predict / fleet.PredictStored, per op
	layerEngine = "engine" // core.Engine call inside the fleet
	layerDetect = "detect" // detect.Detector.Observe on a window call
)

type span struct {
	op         int64
	layer      string
	start, end time.Duration // since the recorder's origin
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in memory. A nil recorder, or one that is not
// active, records nothing, so traced and untraced runs execute the same
// stack.
type recorder struct {
	origin time.Time
	active atomic.Bool
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// start and stop bound the recorded part of the run.
func (r *recorder) start() {
	if r != nil {
		r.active.Store(true)
	}
}

func (r *recorder) stop() {
	if r != nil {
		r.active.Store(false)
	}
}

func (r *recorder) on() bool { return r != nil && r.active.Load() }

func (r *recorder) now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.origin)
}

func (r *recorder) add(ctx context.Context, layer string, start time.Duration) {
	s := span{op: opFrom(ctx), layer: layer, start: start, end: r.now()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// byOp groups the recorded spans by op and layer.
func (r *recorder) byOp() map[int64]map[string][]span {
	out := make(map[int64]map[string][]span)
	for _, s := range r.spans {
		m := out[s.op]
		if m == nil {
			m = make(map[string][]span)
			out[s.op] = m
		}
		m[s.layer] = append(m[s.layer], s)
	}
	return out
}

// selfTime is a parent span's duration minus the part of it its children
// cover. Children of one op run one after another (a retry follows the
// failed attempt), so their clipped durations add up.
func selfTime(parent span, children []span) time.Duration {
	self := parent.dur()
	for _, c := range children {
		lo, hi := c.start, c.end
		if lo < parent.start {
			lo = parent.start
		}
		if hi > parent.end {
			hi = parent.end
		}
		if hi > lo {
			self -= hi - lo
		}
	}
	return self
}

// write stores the spans as JSON lines under dir.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for _, s := range r.spans {
		fmt.Fprintf(w, `{"op":%d,"layer":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.op, s.layer, int64(s.start), int64(s.end))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

type opKey struct{}

// withOp tags a context with the op every span of the request shares.
func withOp(ctx context.Context, op int64) context.Context {
	return context.WithValue(ctx, opKey{}, op)
}

func opFrom(ctx context.Context) int64 {
	op, _ := ctx.Value(opKey{}).(int64)
	return op
}

// tracedEngine is the infer.Inferencer the fleet is built over: it times
// each call into the deployed core.Engine from outside.
type tracedEngine struct {
	eng *core.Engine
	rec *recorder
}

func (t tracedEngine) Predict(ctx context.Context, seq []int) (kernels.Result, infer.Timing, error) {
	if !t.rec.on() {
		return t.eng.Predict(ctx, seq)
	}
	start := t.rec.now()
	res, tm, err := t.eng.Predict(ctx, seq)
	t.rec.add(ctx, layerEngine, start)
	return res, tm, err
}

func (t tracedEngine) PredictStored(ctx context.Context, off int64) (kernels.Result, infer.Timing, error) {
	if !t.rec.on() {
		return t.eng.PredictStored(ctx, off)
	}
	start := t.rec.now()
	res, tm, err := t.eng.PredictStored(ctx, off)
	t.rec.add(ctx, layerEngine, start)
	return res, tm, err
}

func (t tracedEngine) SeqLen() int { return t.eng.SeqLen() }

// timedPredictor is the detect.Predictor of the stream workload: the fleet,
// timed from outside. It also keeps the simulated timing of every window,
// which the detector does not return.
type timedPredictor struct {
	inner infer.Inferencer
	rec   *recorder
	last  infer.Timing
}

func (t *timedPredictor) Predict(ctx context.Context, seq []int) (kernels.Result, infer.Timing, error) {
	var res kernels.Result
	var err error
	if !t.rec.on() {
		res, t.last, err = t.inner.Predict(ctx, seq)
		return res, t.last, err
	}
	start := t.rec.now()
	res, t.last, err = t.inner.Predict(ctx, seq)
	t.rec.add(ctx, layerFleet, start)
	return res, t.last, err
}

func (t *timedPredictor) PredictStored(ctx context.Context, off int64) (kernels.Result, infer.Timing, error) {
	return t.inner.PredictStored(ctx, off)
}

func (t *timedPredictor) SeqLen() int { return t.inner.SeqLen() }
