// Package serve is the single-device request queue: the layer that turns
// one single-stream CSD engine into a concurrent inference service.
//
// A device's engine owns one hardware pipeline and is not safe for
// concurrent use, so the server gives it a single worker goroutine fed by a
// bounded queue. A full queue pushes back — immediately with ErrQueueFull,
// or by blocking until space frees, per Config.Block. The worker coalesces
// adjacent stored-scan requests into one dispatch, the background scanning
// pattern the paper's introduction motivates. Context cancellation is
// honored end-to-end: a canceled request still in the queue is abandoned
// before it ever touches the device. Close fails every still-queued request
// exactly once with ErrClosed (a caller/worker claim decides who completes
// it), so a layer above can re-place it without losing or duplicating work.
//
// Spreading work across several drives is internal/fleet's job: it builds
// one Server per device and places each request. Device identity,
// lifecycle, and busy accounting live in the shared internal/device
// registry: the server serves one registry handle (its own, for standalone
// use, or one handed down by the fleet), labels its telemetry and trace
// track with the registry ID, and refuses new work while the device is out
// of rotation.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/kfrida1/csdinf/internal/device"
	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/kernels"
	"github.com/kfrida1/csdinf/internal/prof"
	"github.com/kfrida1/csdinf/internal/telemetry"
	"github.com/kfrida1/csdinf/internal/trace"
)

// ErrQueueFull is returned (when Config.Block is false) if the device's
// queue has no room — the device is saturated and the caller should shed,
// retry, or place the request elsewhere.
var ErrQueueFull = errors.New("serve: device queue full")

// ErrClosed is returned for requests submitted after Close, and for
// requests still queued when Close ran.
var ErrClosed = errors.New("serve: server closed")

// ErrNoReadyDevice is returned when the device is not in the Ready
// lifecycle state — it is provisioning, draining, or failed.
var ErrNoReadyDevice = errors.New("serve: no ready device")

// Config controls the scheduler.
type Config struct {
	// QueueDepth bounds the device's request queue; 0 defaults to 64.
	QueueDepth int
	// Block makes a full queue block the caller (until space, cancellation,
	// or close) instead of failing fast with ErrQueueFull.
	Block bool
	// BatchMax bounds how many adjacent queued stored-scan requests the
	// worker coalesces into one dispatch; 0 defaults to 8, 1 disables
	// batching.
	BatchMax int
	// Device is the registry handle owning the served device's identity,
	// lifecycle, and busy accounting. Nil builds a private registry
	// (against Config.Telemetry and Config.Events) holding one Ready
	// device, for standalone use; non-nil leaves lifecycle entirely to the
	// caller — the fleet layer drains, fails, and rejoins the device while
	// the server refuses new work whenever it is out of rotation.
	Device *device.Device
	// Telemetry, when non-nil, receives the device's serving metrics:
	// serve_jobs_total, serve_dispatches_total, serve_errors_total,
	// serve_canceled_total, serve_queue_full_total, the
	// serve_queue_wait_seconds wall-time histogram, and the
	// serve_batch_size histogram — all labeled device="<registry ID>".
	// Busy-time and backlog instruments live with the registry
	// (device_busy_nanoseconds_total, device_pending_requests). With a nil
	// registry the same instruments still back Stats(), just unexported.
	Telemetry *telemetry.Registry
	// Spans, when non-nil, retains the completed telemetry.Span of every
	// request that did not already carry one in its context (e.g. direct
	// Predict calls outside a detector).
	Spans *telemetry.SpanLog
	// Trace, when non-nil, records each request's queue residency on the
	// device's scheduler track (named by registry ID) and stamps the
	// request's telemetry.Span with a fresh trace job ID (Span.Job) — the
	// correlation key tying the queue event to the transfer and kernel
	// events the device emits for the same request.
	Trace *trace.Tracer
	// Events, when non-nil, receives the scheduler's structured events:
	// per-request completions (debug: request.done, with device and
	// queue-wait attribution), backpressure rejections (warn: queue.full),
	// device-side failures (warn: request.error), and lifecycle events
	// (info: server.start / server.close). Device-attributed events carry
	// the registry ID.
	Events *eventlog.Logger
	// Prof, when non-nil, aggregates each request's host wall-clock per
	// pipeline stage (queue, encode, transfer, compute, observe) from the
	// request's telemetry.Span. The server records the spans it created;
	// a caller-owned span (e.g. a detector's) is stamped here but recorded
	// by its creator.
	Prof *prof.Profiler
}

func (c *Config) defaults() error {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("serve: QueueDepth must be positive, got %d", c.QueueDepth)
	}
	if c.BatchMax == 0 {
		c.BatchMax = 8
	}
	if c.BatchMax < 0 {
		return fmt.Errorf("serve: BatchMax must be positive, got %d", c.BatchMax)
	}
	return nil
}

// response carries a completed classification back to its caller.
type response struct {
	res    kernels.Result
	timing infer.Timing
	err    error
}

// claim states for request.claim.
const (
	claimNone   int32 = iota // unresolved
	claimWorker              // worker will complete done (result or error)
	claimCaller              // caller reclaimed at close; never executed
)

// request is one queued classification. done is buffered (capacity 1) so
// the worker can always complete a request whose caller has already
// abandoned it.
type request struct {
	ctx    context.Context
	seq    []int // live window; nil for stored requests
	off    int64 // SSD offset; meaningful when stored
	stored bool
	done   chan response
	// enqueuedAt stamps submission, so the worker can record the request's
	// queue wait (wall time: queueing happens in the real host scheduler,
	// unlike the simulated device time in Timing).
	enqueuedAt time.Time
	// claim resolves the close-time race between the caller and the
	// worker: 0 = unresolved, 1 = worker owns it (will deliver done),
	// 2 = caller reclaimed it (ErrClosed, eligible for re-placement
	// upstream). Whoever wins the CAS also decrements the device's
	// pending count. Without it, a caller observing quit while its
	// request executes would abandon work the worker still completes —
	// and a fleet-level retry would then duplicate the window.
	claim atomic.Int32
	// span is the request's record, nil when nothing observes the
	// request: the context span when the caller supplied one, else rec.
	span *telemetry.Span
	// rec is the server-owned record (own set), living inside the request
	// so it costs no allocation of its own; the server logs it to
	// Config.Spans and Config.Prof on completion. Caller-owned spans are
	// the caller's to log.
	rec telemetry.Span
	own bool
}

// Server schedules classification requests onto one single-stream
// inference engine. It implements infer.Inferencer, so a detector, mux,
// hot-swap wrapper, or fleet can sit directly on top of it. Its methods are
// safe for concurrent use.
//
// Identity, lifecycle, and busy/backlog accounting live on the registry
// handle; the scalar serving counters live directly in telemetry
// instruments (created against Config.Telemetry, or detached when
// telemetry is off), so Stats() and /metrics read the same source of
// truth.
type Server struct {
	cfg   Config
	h     *device.Device
	inf   infer.Inferencer
	queue chan *request

	jobs       *telemetry.Counter // requests executed successfully
	dispatches *telemetry.Counter // worker wake-ups (batches count once)
	errors     *telemetry.Counter // failed executions (cancellations excluded)
	canceled   *telemetry.Counter // requests abandoned before touching the device
	queueFull  *telemetry.Counter // ErrQueueFull rejections
	queueWait  *telemetry.Histogram
	batchSize  *telemetry.Histogram

	quit   chan struct{}
	exited chan struct{} // closed when the worker returns
	closed atomic.Bool
}

var _ infer.Inferencer = (*Server)(nil)

// New starts a server and its worker goroutine; engines must hold exactly
// one engine. The server takes ownership of serializing access to the
// engine; callers must not use it directly while the server is running.
//
// Device identity comes from cfg.Device when supplied (lifecycle managed
// by the caller); otherwise the server registers one device in a private
// registry and marks it Ready.
func New(engines []infer.Inferencer, cfg Config) (*Server, error) {
	if len(engines) != 1 {
		return nil, fmt.Errorf("serve: a server runs exactly one engine, got %d", len(engines))
	}
	if engines[0] == nil {
		return nil, errors.New("serve: engine is nil")
	}
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	h := cfg.Device
	if h == nil {
		h = device.NewRegistry(device.Config{
			Telemetry: cfg.Telemetry, Events: cfg.Events,
		}).Register()
		if err := h.SetReady("serve-start"); err != nil {
			return nil, err
		}
	}
	reg := cfg.Telemetry
	dl := telemetry.L("device", string(h.ID()))
	s := &Server{
		cfg:   cfg,
		h:     h,
		inf:   engines[0],
		queue: make(chan *request, cfg.QueueDepth),
		jobs: reg.Counter("serve_jobs_total",
			"Requests executed successfully.", dl),
		dispatches: reg.Counter("serve_dispatches_total",
			"Worker wake-ups; a coalesced stored batch counts once.", dl),
		errors: reg.Counter("serve_errors_total",
			"Requests that failed on the device (cancellations excluded).", dl),
		canceled: reg.Counter("serve_canceled_total",
			"Requests abandoned by context cancellation before touching the device.", dl),
		queueFull: reg.Counter("serve_queue_full_total",
			"Requests rejected with ErrQueueFull.", dl),
		queueWait: reg.Histogram("serve_queue_wait_seconds",
			"Wall time between enqueue and worker dispatch.", telemetry.Buckets{}, dl),
		batchSize: reg.Histogram("serve_batch_size",
			"Stored-scan requests coalesced per dispatch.", telemetry.DefaultCountBuckets(), dl),
		quit:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	go s.run()
	cfg.Events.LogDevice(context.Background(), eventlog.LevelInfo, "serve", "server.start",
		string(h.ID()),
		eventlog.F("queue_depth", cfg.QueueDepth),
		eventlog.F("batch_max", cfg.BatchMax),
		eventlog.F("block", cfg.Block))
	return s, nil
}

// Closed reports whether Close has begun: new submits fail with ErrClosed
// and queued requests are being failed for re-placement.
func (s *Server) Closed() bool { return s.closed.Load() }

// SeqLen returns the classification window length of the deployed engine.
func (s *Server) SeqLen() int { return s.inf.SeqLen() }

// Predict classifies a live window on the device. The window is copied, so
// the caller may reuse its slice (detectors slide theirs) as soon as
// Predict returns.
func (s *Server) Predict(ctx context.Context, seq []int) (kernels.Result, infer.Timing, error) {
	req := &request{ctx: ctx, seq: append([]int(nil), seq...), done: make(chan response, 1)}
	return s.submit(ctx, req)
}

// PredictStored classifies the sequence at the given byte offset of the
// device's SSD. Adjacent queued stored requests are coalesced into one
// device dispatch.
func (s *Server) PredictStored(ctx context.Context, ssdOff int64) (kernels.Result, infer.Timing, error) {
	req := &request{ctx: ctx, off: ssdOff, stored: true, done: make(chan response, 1)}
	return s.submit(ctx, req)
}

func (s *Server) submit(ctx context.Context, req *request) (kernels.Result, infer.Timing, error) {
	if err := ctx.Err(); err != nil {
		return kernels.Result{}, infer.Timing{}, err
	}
	if s.closed.Load() {
		return kernels.Result{}, infer.Timing{}, ErrClosed
	}
	req.span = telemetry.SpanFrom(ctx)
	if req.span == nil && (s.cfg.Spans != nil || s.cfg.Trace.Enabled() || s.cfg.Prof != nil) {
		req.rec = telemetry.Span{Name: "predict", Start: time.Now()}
		if req.stored {
			req.rec.Name = "predict-stored"
		}
		req.span, req.own = &req.rec, true
		req.ctx = telemetry.WithSpan(ctx, req.span)
	}
	if s.cfg.Trace.Enabled() {
		req.span.Job = s.cfg.Trace.NewJob()
	}
	if !s.h.IsReady() {
		return kernels.Result{}, infer.Timing{}, ErrNoReadyDevice
	}
	s.h.IncPending()
	req.enqueuedAt = time.Now()
	if s.cfg.Block {
		select {
		case s.queue <- req:
		case <-ctx.Done():
			s.h.DecPending()
			s.canceled.Inc()
			return kernels.Result{}, infer.Timing{}, ctx.Err()
		case <-s.quit:
			s.h.DecPending()
			return kernels.Result{}, infer.Timing{}, ErrClosed
		}
	} else {
		select {
		case s.queue <- req:
		default:
			s.h.DecPending()
			s.queueFull.Inc()
			s.cfg.Events.LogDevice(req.ctx, eventlog.LevelWarn, "serve", "queue.full",
				string(s.h.ID()),
				eventlog.F("queue_depth", s.cfg.QueueDepth))
			return kernels.Result{}, infer.Timing{}, ErrQueueFull
		}
	}
	select {
	case resp := <-req.done:
		return resp.res, resp.timing, resp.err
	case <-ctx.Done():
		// Abandon: the worker will observe the canceled ctx before
		// touching the device and complete the buffered done channel.
		return kernels.Result{}, infer.Timing{}, ctx.Err()
	case <-s.quit:
		if req.claim.CompareAndSwap(claimNone, claimCaller) {
			// Still queued and unclaimed: this request never touched the
			// device and never will — safe for the caller (or a fleet
			// layer) to re-place elsewhere.
			s.h.DecPending()
			return kernels.Result{}, infer.Timing{}, ErrClosed
		}
		// The worker owns it: the device is (or was) executing this
		// request, so the exactly-once answer is whatever the worker
		// delivers.
		resp := <-req.done
		return resp.res, resp.timing, resp.err
	}
}

// run is the device worker: the single goroutine with access to the engine.
func (s *Server) run() {
	defer close(s.exited)
	for {
		// Quit takes priority over further queued work: once Close has run,
		// remaining queued requests are failed with ErrClosed (so a fleet
		// layer can re-place them), not executed. Without this check the
		// blocking select below picks randomly when both are ready.
		select {
		case <-s.quit:
			s.failQueued()
			return
		default:
		}
		select {
		case <-s.quit:
			s.failQueued()
			return
		case req := <-s.queue:
			batch := s.collect(req)
			s.dispatches.Inc()
			s.batchSize.Observe(int64(len(batch)))
			for _, r := range batch {
				s.execute(r)
			}
		}
	}
}

// failQueued completes every still-queued request with ErrClosed.
func (s *Server) failQueued() {
	for {
		select {
		case req := <-s.queue:
			if req.claim.CompareAndSwap(claimNone, claimWorker) {
				s.h.DecPending()
				req.done <- response{err: ErrClosed}
			}
		default:
			return
		}
	}
}

// collect coalesces adjacent queued stored-scan requests behind the first
// into one dispatch, stopping at a live request, an empty queue, or
// BatchMax.
func (s *Server) collect(first *request) []*request {
	batch := []*request{first}
	if !first.stored || s.cfg.BatchMax <= 1 {
		return batch
	}
	for len(batch) < s.cfg.BatchMax {
		select {
		case next := <-s.queue:
			batch = append(batch, next)
			if !next.stored {
				return batch
			}
		default:
			return batch
		}
	}
	return batch
}

// execute runs one request on the engine and completes it. A request whose
// context is already done never touches the engine.
func (s *Server) execute(req *request) {
	if !req.claim.CompareAndSwap(claimNone, claimWorker) {
		// The caller reclaimed this request at close; it was never
		// executed and the caller has already re-placed it.
		return
	}
	id := string(s.h.ID())
	// Queue wait ends here, whether the request proceeds or was abandoned:
	// the scheduling delay was paid either way. The span is therefore
	// stamped before the ctx check below: a caller that has already
	// abandoned the request may still find its span written to.
	wait := time.Since(req.enqueuedAt)
	sp := req.span
	sp.Add(telemetry.StageQueue, wait)
	obs := sp.Begin(telemetry.StageObserve)
	s.queueWait.ObserveDuration(wait)
	if sp != nil {
		sp.Device = id
	}
	if tr := s.cfg.Trace; tr.Enabled() {
		// Pure wall-clock domain: the wait really elapsed on the host.
		name := "queue:predict"
		if req.stored {
			name = "queue:predict-stored"
		}
		start := tr.Elapsed() - wait
		if start < 0 {
			start = 0
		}
		tr.Emit(trace.Event{
			Track: trace.Track{Group: "serve", Name: id},
			Name:  name, Cat: trace.CatQueue,
			Start: start, Dur: wait, Job: sp.Job,
		})
	}
	obs.End()
	if err := req.ctx.Err(); err != nil {
		s.h.DecPending()
		s.canceled.Inc()
		req.done <- response{err: err}
		return
	}
	// req.ctx carries the span down to the engine, which stamps its stages.
	var resp response
	if req.stored {
		resp.res, resp.timing, resp.err = s.inf.PredictStored(req.ctx, req.off)
	} else {
		resp.res, resp.timing, resp.err = s.inf.Predict(req.ctx, req.seq)
	}
	obs = sp.Begin(telemetry.StageObserve)
	s.h.AddBusy(int64(resp.timing.Total()))
	if resp.err == nil {
		s.jobs.Inc()
		if s.cfg.Events.Enabled(eventlog.LevelDebug) {
			s.cfg.Events.LogDevice(req.ctx, eventlog.LevelDebug, "serve", "request.done", id,
				eventlog.F("stored", req.stored),
				eventlog.F("queue_wait_ns", wait),
				eventlog.F("device_time_ns", resp.timing.Total()))
		}
	} else {
		s.errors.Inc()
		s.cfg.Events.LogDevice(req.ctx, eventlog.LevelWarn, "serve", "request.error", id,
			eventlog.F("stored", req.stored),
			eventlog.F("error", resp.err))
	}
	obs.End()
	if req.own {
		s.cfg.Spans.Add(*sp)
		s.cfg.Prof.Record(sp)
	}
	// Drop the backlog count before releasing the caller, so a placer
	// reading the device's score for the caller's next request sees the
	// true backlog.
	s.h.DecPending()
	req.done <- resp
}

// DeviceStats describes the device's serving activity. It is a read of the
// same telemetry instruments exposed at /metrics.
type DeviceStats struct {
	// ID is the device's stable registry identity.
	ID string
	// State is the device's lifecycle state name.
	State string
	// Jobs counts successfully executed requests.
	Jobs int64
	// Dispatches counts worker wake-ups; a coalesced stored batch counts
	// once, so Dispatches < Jobs indicates batching is occurring.
	Dispatches int64
	// BusyTime is the accumulated simulated device time.
	BusyTime time.Duration
	// Queued is the current backlog (queued or executing requests).
	Queued int64
	// Errors counts failed executions (cancellations excluded).
	Errors int64
	// Canceled counts requests abandoned before touching the device.
	Canceled int64
	// QueueFull counts ErrQueueFull rejections.
	QueueFull int64
	// QueueWaits counts dispatches with a recorded queue wait.
	QueueWaits int64
	// QueueWaitMean and QueueWaitP90 summarize the wall-time queue-wait
	// distribution (zero until the first dispatch).
	QueueWaitMean time.Duration
	QueueWaitP90  time.Duration
}

// Stats returns a snapshot of the device's serving activity.
func (s *Server) Stats() DeviceStats {
	wait := s.queueWait.Snapshot()
	return DeviceStats{
		ID:            string(s.h.ID()),
		State:         s.h.State().String(),
		Jobs:          s.jobs.Value(),
		Dispatches:    s.dispatches.Value(),
		BusyTime:      time.Duration(s.h.Busy()),
		Queued:        s.h.Pending(),
		Errors:        s.errors.Value(),
		Canceled:      s.canceled.Value(),
		QueueFull:     s.queueFull.Value(),
		QueueWaits:    wait.Count,
		QueueWaitMean: time.Duration(wait.Mean),
		QueueWaitP90:  time.Duration(wait.P90),
	}
}

// Close stops the worker, fails queued requests with ErrClosed, and waits
// for the worker to exit. Close is idempotent.
func (s *Server) Close() error {
	if s.closed.CompareAndSwap(false, true) {
		close(s.quit)
		<-s.exited
		// Sweep once more after the worker exits: a submit racing with
		// Close can commit its enqueue after the worker's drain.
		s.failQueued()
		s.cfg.Events.LogDevice(context.Background(), eventlog.LevelInfo, "serve", "server.close",
			string(s.h.ID()),
			eventlog.F("jobs_total", s.jobs.Value()))
		return nil
	}
	<-s.exited
	return nil
}
