package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/detect"
	"github.com/kfrida1/csdinf/internal/device"
	"github.com/kfrida1/csdinf/internal/fleet"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/quality"
	"github.com/kfrida1/csdinf/internal/serve"
)

// Offered rates of the open-loop workloads, in requests per second. On a
// 2-vCPU host 300/s keeps live p50 near the service time, while 1,200/s
// backs the queue up. Blackout runs at half that, so the one node left
// during its drain and failure phases is no busier than live's two.
const (
	liveRate     = 300
	blackoutRate = 150
	scanCallers  = 2 // closed-loop callers, one per core
)

// outcome is one op: its input, its label and what the stack returned.
type outcome struct {
	op     int64
	seq    []int
	label  quality.Label
	done   bool
	prob   float64
	timing infer.Timing
	at     time.Duration // intended (open loop) or actual start, since the run began
	lat    time.Duration
	err    error
}

// repeat is a completed scan op past the first pass.
type repeat struct {
	op   int64
	prob float64
}

// result is what one timed run produced.
type result struct {
	outs     []outcome // in generation order (stream: the first pass's windows; scan: the first pass, then failed ops)
	ops      int64     // throughput units: requests, scans or API calls
	windows  int64     // classifications over the whole run
	elapsed  time.Duration
	start    time.Time
	lat      []time.Duration // every completed op (stream: every window call)
	latAt    []time.Duration // when each of those ops started, for segments
	work     []int64         // ops each of those accounts for (stream: calls since the last window)
	counted  int64           // stream: ops already accounted for in work
	lateness []time.Duration // open loop: dispatch time minus intended time
	offered  int64           // open loop: ops scheduled
	lastAt   time.Duration   // open loop: intended time of the last op
	cpu      time.Duration
	probe    *speedProbe // run alongside the timed ops
	rt0, rt1 runtimeSample
	traffic  csd.Traffic // bytes moved during the run

	// Simulated device time summed over every completed classification.
	simTransfer, simCompute time.Duration

	// scan only: completed ops past the first pass over the stored set
	repeats []repeat

	// stream only
	passes       int
	passDigests  []uint64
	callsToBlock []float64
	nonWindowNS  time.Duration // traced: Observe time on calls that classify nothing
	scorecard    quality.ConfusionSnapshot
}

// sentinel classifies an error by the sentinel it wraps.
func sentinel(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, fleet.ErrNoReadyDevice):
		return "fleet.no-ready-device"
	case errors.Is(err, fleet.ErrAdmission):
		return "fleet.admission"
	case errors.Is(err, fleet.ErrClosed):
		return "fleet.closed"
	case errors.Is(err, serve.ErrQueueFull):
		return "serve.queue-full"
	case errors.Is(err, serve.ErrClosed):
		return "serve.closed"
	case errors.Is(err, serve.ErrNoReadyDevice):
		return "serve.no-ready-device"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "ctx"
	default:
		return "other"
	}
}

// plannedRefusal reports whether an error is the designed answer to the
// blackout's planned outage: no ready device, or a re-placement that found
// its device closed.
func plannedRefusal(err error) bool {
	switch sentinel(err) {
	case "fleet.no-ready-device", "serve.closed", "serve.no-ready-device":
		return true
	}
	return false
}

// chaosStep is one fleet disturbance at a share of the run.
type chaosStep struct {
	at   float64
	name string
	do   func() error
}

// chaosPlan is csdload's -chaos plan on a two-node fleet: drain and rejoin
// one node, fail and rejoin the other, then fail every node from 70% to
// 85% of the run.
func chaosPlan(fl *fleet.Fleet) []chaosStep {
	var ids []device.ID
	for _, d := range fl.Registry().List() {
		ids = append(ids, d.ID())
	}
	all := func(do func(device.ID, string) error, reason string) func() error {
		return func() error {
			var first error
			for _, id := range ids {
				if err := do(id, reason); err != nil && first == nil {
					first = err
				}
			}
			return first
		}
	}
	return []chaosStep{
		{0.35, "drain " + string(ids[1]), func() error { return fl.Drain(ids[1], "chaos-drain") }},
		{0.45, "rejoin " + string(ids[1]), func() error { return fl.Rejoin(ids[1], "chaos-drain-over") }},
		{0.50, "fail " + string(ids[0]), func() error { return fl.Fail(ids[0], "chaos-fault") }},
		{0.60, "rejoin " + string(ids[0]), func() error { return fl.Rejoin(ids[0], "chaos-repaired") }},
		{0.70, "fail all", all(fl.Fail, "chaos-blackout")},
		{0.85, "rejoin all", all(fl.Rejoin, "chaos-blackout-over")},
	}
}

// runOpen dispatches every op at its intended time, whatever the fleet's
// state, and times each from that intent, so a stall is charged to every
// op it delays.
func (b *bench) runOpen(ctx context.Context, ops []liveOp, dur time.Duration, chaos []chaosStep) (*result, error) {
	res := &result{outs: make([]outcome, len(ops)), offered: int64(len(ops)), start: time.Now()}
	if len(ops) > 0 {
		res.lastAt = ops[len(ops)-1].at
	}
	sc := b.st.obs.quality
	var wg sync.WaitGroup
	start := res.start

	chaosErr := make(chan error, 1)
	go func() {
		var first error
		for _, s := range chaos {
			time.Sleep(time.Until(start.Add(time.Duration(s.at * float64(dur)))))
			if err := s.do(); err != nil && first == nil {
				first = fmt.Errorf("chaos step %q: %w", s.name, err)
			}
		}
		chaosErr <- first
	}()

	for i := range ops {
		op := &ops[i]
		intended := start.Add(op.at)
		time.Sleep(time.Until(intended))
		res.lateness = append(res.lateness, time.Since(intended))
		wg.Add(1)
		go func(i int, op *liveOp, intended time.Time) {
			defer wg.Done()
			octx := withOp(quality.WithLabel(infer.WithTenant(ctx, op.tenant), op.label), int64(i))
			p, t0 := b.rec.on(), b.rec.now()
			r, tm, err := b.st.fleet.Predict(octx, op.seq)
			if p {
				b.rec.add(octx, layerFleet, t0)
			}
			lat := time.Since(intended)
			res.outs[i] = outcome{op: int64(i), seq: op.seq, label: op.label,
				done: err == nil, prob: r.Probability, timing: tm, at: op.at, lat: lat, err: err}
			if err == nil {
				sc.Observe(octx, quality.Verdict{PID: op.pid, Probability: r.Probability,
					Flagged: r.Probability >= detectThreshold})
			}
		}(i, op, intended)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	if err := <-chaosErr; err != nil {
		return nil, err
	}
	for _, o := range res.outs {
		if o.done {
			res.lat, res.latAt = append(res.lat, o.lat), append(res.latAt, o.at)
			res.work = append(res.work, 1)
			res.addSim(o.timing)
		}
	}
	res.ops, res.windows = int64(len(res.lat)), int64(len(res.lat))
	return res, nil
}

// runScan drives scanCallers closed-loop callers over the stored set until
// dur has passed. Ops are numbered as callers take them, so op i always
// scans the same sequence as op i mod scanSeqs. Only the first pass over the
// set and failed ops keep whole outcomes; a later op keeps its probability,
// which the check requires to equal the first pass's, so the benchmark's
// own memory barely grows with the program's speed.
func (b *bench) runScan(ctx context.Context, dur time.Duration) (*result, error) {
	set := b.scan
	pass := int64(len(set.order))
	var next atomic.Int64
	var mu sync.Mutex
	var outs []outcome
	var wg sync.WaitGroup
	res := &result{start: time.Now()}
	start := res.start
	for c := 0; c < scanCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				i := next.Add(1) - 1
				j := set.order[i%pass]
				octx := withOp(ctx, i)
				t0 := time.Now()
				p, s0 := b.rec.on(), b.rec.now()
				r, tm, err := b.st.fleet.PredictStored(octx, set.offset(j))
				if p {
					b.rec.add(octx, layerFleet, s0)
				}
				lat := time.Since(t0)
				mu.Lock()
				if err == nil {
					res.lat, res.latAt = append(res.lat, lat), append(res.latAt, t0.Sub(start))
					res.work = append(res.work, 1)
					res.addSim(tm)
				}
				if err == nil && i >= pass {
					res.repeats = append(res.repeats, repeat{op: i, prob: r.Probability})
				} else {
					outs = append(outs, outcome{op: i, seq: set.seqs[j], label: set.labels[j],
						done: err == nil, prob: r.Probability, timing: tm, at: t0.Sub(start), lat: lat, err: err})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	// Every op taken ran: the first pass fills its indices, and failed
	// later ops follow it.
	res.outs = make([]outcome, min(next.Load(), pass))
	for _, o := range outs {
		if o.op < pass {
			res.outs[o.op] = o
		} else {
			res.outs = append(res.outs, o)
		}
	}
	res.ops, res.windows = int64(len(res.lat)), int64(len(res.lat))
	return res, nil
}

// detectThreshold and alertsToBlock are the detector's defaults, spelled
// out because the benchmark scores verdicts with the same rule.
const (
	detectThreshold = 0.5
	alertsToBlock   = 2
)

// runStream replays the process traces interleaved call by call from one
// goroutine, one detector per process, and repeats whole passes with fresh
// detectors until dur has passed. Every pass must classify the same windows
// the same way.
func (b *bench) runStream(ctx context.Context, dur time.Duration) (*result, error) {
	res := &result{start: time.Now()}
	pred := &timedPredictor{inner: b.st.fleet, rec: b.rec}
	start := res.start
	for res.passes == 0 || time.Since(start) < dur {
		outs, blockAt, err := b.streamPass(ctx, pred, res)
		if err != nil {
			return nil, err
		}
		d := newDigest()
		for _, o := range outs {
			d.add(o.op, o.prob)
		}
		res.passDigests = append(res.passDigests, d.sum())
		if res.passes == 0 {
			res.outs = outs
			for i, p := range b.stream {
				if p.infectAt < 0 {
					continue
				}
				// A process never blocked, or blocked on its benign
				// prefix, missed every limit.
				calls := math.Inf(1)
				if blockAt[i] >= p.infectAt {
					calls = float64(blockAt[i] - p.infectAt + 1)
				}
				res.callsToBlock = append(res.callsToBlock, calls)
			}
		}
		res.passes++
	}
	res.elapsed = time.Since(start)
	res.scorecard = b.st.obs.quality.Snapshot().Total
	return res, nil
}

// streamPass runs one pass and returns its windows in call order and, per
// process, the index of the call that fired mitigation (-1 if none).
func (b *bench) streamPass(ctx context.Context, pred *timedPredictor, res *result) ([]outcome, []int, error) {
	procs := b.stream
	dets := make([]*detect.Detector, len(procs))
	for i := range procs {
		d, err := detect.New(pred, detect.Config{
			Stride:        stride,
			Threshold:     detectThreshold,
			AlertsToBlock: alertsToBlock,
			Quality:       b.st.obs.quality,
			OnWindow:      b.st.obs.incidents.Window,
		})
		if err != nil {
			return nil, nil, err
		}
		dets[i] = d
	}
	blockAt := make([]int, len(procs))
	for i := range blockAt {
		blockAt[i] = -1
	}
	var outs []outcome
	var op int64
	traced := b.rec.on()
	for pos, active := 0, len(procs); active > 0; pos++ {
		active = 0
		for i := range procs {
			p := &procs[i]
			if pos >= len(p.calls) || blockAt[i] >= 0 {
				continue
			}
			active++
			op++
			if !classifies(pos) {
				if traced {
					t0 := time.Now()
					_, err := dets[i].Observe(ctx, p.calls[pos])
					res.nonWindowNS += time.Since(t0)
					if err != nil {
						return nil, nil, err
					}
				} else if _, err := dets[i].Observe(ctx, p.calls[pos]); err != nil {
					return nil, nil, err
				}
				res.ops++
				continue
			}
			label := p.windowTruth(pos)
			octx := withOp(quality.WithLabel(ctx, label), op)
			t0, s0 := time.Now(), b.rec.now()
			ev, err := dets[i].Observe(octx, p.calls[pos])
			if traced {
				b.rec.add(octx, layerDetect, s0)
			}
			lat := time.Since(t0)
			if err != nil {
				return nil, nil, err
			}
			if ev == nil {
				return nil, nil, fmt.Errorf("stream: no verdict at call %d of process %d", pos, i)
			}
			res.ops++
			res.windows++
			res.lat, res.latAt = append(res.lat, lat), append(res.latAt, t0.Sub(res.start))
			res.work = append(res.work, res.ops-res.counted)
			res.counted = res.ops
			res.addSim(pred.last)
			outs = append(outs, outcome{op: op, seq: p.calls[pos-seqLen+1 : pos+1], label: label,
				done: true, prob: ev.Probability, timing: pred.last, lat: lat})
			if ev.Action == detect.ActionBlock {
				blockAt[i] = pos
			}
		}
	}
	return outs, blockAt, nil
}

func (r *result) addSim(t infer.Timing) {
	r.simTransfer += t.Transfer
	r.simCompute += t.Compute
}
