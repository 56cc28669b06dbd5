package main

import (
	"context"
	"runtime"
	"time"

	"github.com/kfrida1/csdinf/internal/activation"
	"github.com/kfrida1/csdinf/internal/core"
	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/detect"
	"github.com/kfrida1/csdinf/internal/fixed"
	"github.com/kfrida1/csdinf/internal/fleet"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/serve"
)

// Ops per ladder rung: enough for about 0.2-0.4 s each on a 2-vCPU host.
const (
	ladderArithOps = 200_000
	ladderWindows  = 300
)

var sinkValue fixed.Value // keeps the arithmetic rungs from being optimized away

// ladderSeqs is the sequence set of the ladder: the workload's own windows.
func (b *bench) ladderSeqs() [][]int {
	var seqs [][]int
	switch {
	case b.scan != nil:
		seqs = b.scan.seqs
	case b.stream != nil:
		for _, p := range b.stream {
			seqs = append(seqs, p.calls[:seqLen])
		}
	default:
		for _, op := range b.live {
			seqs = append(seqs, op.seq)
		}
	}
	if len(seqs) > 64 {
		seqs = seqs[:64]
	}
	return seqs
}

// rung times n serialized ops and reports ns and allocations per op.
func rung(rep *report, name string, n int, op func(i int) error) error {
	runtime.GC()
	r0, t0 := readRuntime(), time.Now()
	for i := 0; i < n; i++ {
		if err := op(i); err != nil {
			return err
		}
	}
	el, r1 := time.Since(t0), readRuntime()
	rep.set(name+"_ns", float64(el.Nanoseconds())/float64(n), "ns")
	rep.set(name+"_allocs", float64(r1.allocs-r0.allocs)/float64(n), "count")
	return nil
}

// deployBare deploys the model on a fresh device with every observability
// collaborator nil.
func (b *bench) deployBare() (*core.Engine, error) {
	dev, err := csd.New(csd.Config{})
	if err != nil {
		return nil, err
	}
	return core.Deploy(dev, b.model, core.DeployConfig{SeqLen: seqLen})
}

// ladder runs the serialized layer ladder, one op at a time, with the
// run's weights and sequences: fixed.dot → activations → kernels.classify →
// core.predict → serve.predict → fleet.predict → detect.window. It then
// prices the observability stack as the premium of an instrumented
// serve.predict over the bare one, in the stage vocabulary of
// experiments.WallClock.
func (b *bench) ladder(rep *report) error {
	ctx := context.Background()
	seqs := b.ladderSeqs()
	a := fixed.Default
	g := b.model.Gates[0]
	x := a.QuantizeSlice(append(append([]float64{}, g.Wx.Row(0)...), g.Wh.Row(0)...))
	y := a.QuantizeSlice(append(append([]float64{}, b.model.Embedding.Row(seqs[0][0])...), b.model.FCW...))
	if err := rung(rep, "fixed.dot", ladderArithOps, func(int) error {
		sinkValue += a.Dot(x, y)
		return nil
	}); err != nil {
		return err
	}
	act := activation.NewFixed(a)
	in := make([]fixed.Value, 256)
	for i := range in {
		in[i] = a.FromFloat(-8 + 16*float64(i)/float64(len(in)))
	}
	if err := rung(rep, "activation.sigmoid", ladderArithOps, func(i int) error {
		sinkValue += act.Sigmoid(in[i%len(in)])
		return nil
	}); err != nil {
		return err
	}
	if err := rung(rep, "activation.softsign", ladderArithOps, func(i int) error {
		sinkValue += act.Softsign(in[i%len(in)])
		return nil
	}); err != nil {
		return err
	}

	pipe, err := kernels.New(b.model, kernels.Config{SeqLen: seqLen})
	if err != nil {
		return err
	}
	if err := rung(rep, "kernels.classify", ladderWindows, func(i int) error {
		_, _, err := pipe.Classify(seqs[i%len(seqs)])
		return err
	}); err != nil {
		return err
	}

	engA, err := b.deployBare()
	if err != nil {
		return err
	}
	engB, err := b.deployBare()
	if err != nil {
		return err
	}
	if err := rung(rep, "core.predict", ladderWindows, func(i int) error {
		_, _, err := engA.Predict(ctx, seqs[i%len(seqs)])
		return err
	}); err != nil {
		return err
	}
	bare, err := serve.New([]infer.Inferencer{engA}, serve.Config{})
	if err != nil {
		return err
	}
	defer bare.Close()
	if err := rung(rep, "serve.predict", ladderWindows, func(i int) error {
		_, _, err := bare.Predict(ctx, seqs[i%len(seqs)])
		return err
	}); err != nil {
		return err
	}
	fl, err := fleet.NewFromEngines([]infer.Inferencer{engA, engB}, fleet.Config{})
	if err != nil {
		return err
	}
	defer fl.Close()
	if err := rung(rep, "fleet.predict", ladderWindows, func(i int) error {
		_, _, err := fl.Predict(ctx, seqs[i%len(seqs)])
		return err
	}); err != nil {
		return err
	}
	det, err := detect.New(fl, detect.Config{Stride: stride, Threshold: detectThreshold, AlertsToBlock: 1 << 30})
	if err != nil {
		return err
	}
	var calls []int
	for _, s := range seqs {
		calls = append(calls, s...)
	}
	next := 0
	feed := func() error {
		_, err := det.Observe(ctx, calls[next%len(calls)])
		next++
		return err
	}
	for i := 0; i < seqLen-stride; i++ {
		if err := feed(); err != nil {
			return err
		}
	}
	if err := rung(rep, "detect.window", ladderWindows, func(int) error {
		for k := 0; k < stride; k++ {
			if err := feed(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return b.observePremium(rep, bare, seqs)
}

// observePremium measures the instrumented serve.predict against the bare
// one in alternating blocks, so host drift falls on both legs alike.
func (b *bench) observePremium(rep *report, bare *serve.Server, seqs [][]int) error {
	obs, err := newObservability(true)
	if err != nil {
		return err
	}
	defer obs.close()
	dev, err := csd.New(csd.Config{})
	if err != nil {
		return err
	}
	eng, err := core.Deploy(dev, b.model, core.DeployConfig{
		SeqLen: seqLen, Telemetry: obs.reg, Trace: obs.tracer, Events: obs.events,
	})
	if err != nil {
		return err
	}
	instr, err := serve.New([]infer.Inferencer{eng}, serve.Config{
		Telemetry: obs.reg, Spans: obs.spans, Trace: obs.tracer, Events: obs.events, Prof: obs.prof,
	})
	if err != nil {
		return err
	}
	defer instr.Close()

	ctx := context.Background()
	const block = 25
	var legNS [2]time.Duration
	var legAllocs [2]uint64
	runtime.GC()
	for i := 0; i < ladderWindows; i += block {
		for leg, srv := range []*serve.Server{bare, instr} {
			r0, t0 := readRuntime(), time.Now()
			for k := i; k < i+block; k++ {
				if _, _, err := srv.Predict(ctx, seqs[k%len(seqs)]); err != nil {
					return err
				}
			}
			legNS[leg] += time.Since(t0)
			legAllocs[leg] += readRuntime().allocs - r0.allocs
		}
	}
	n := float64(ladderWindows)
	rep.set("observe.premium_ns_per_window", float64(legNS[1]-legNS[0])/n, "ns")
	rep.set("observe.premium_allocs_per_window", (float64(legAllocs[1])-float64(legAllocs[0]))/n, "count")
	rep.note("observe: instrumented %.0f ns/op, bare %.0f ns/op over %d windows each",
		float64(legNS[1])/n, float64(legNS[0])/n, ladderWindows)
	return nil
}

// traceOverhead estimates the share of the run's CPU time spent recording
// spans, from the measured cost of one span record, plus the clock pairs
// the traced stream adds around calls that classify nothing.
func traceOverhead(spans int, timedCalls int64, cpu time.Duration) float64 {
	r := newRecorder()
	r.start()
	ctx := withOp(context.Background(), 1)
	const n = 100_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.add(ctx, layerEngine, r.now())
	}
	perSpan := time.Since(t0) / n
	t0 = time.Now()
	for i := 0; i < n; i++ {
		_ = time.Now()
	}
	perClock := time.Since(t0) / n
	extra := time.Duration(spans)*perSpan + time.Duration(timedCalls)*2*perClock
	return extra.Seconds() / cpu.Seconds()
}
