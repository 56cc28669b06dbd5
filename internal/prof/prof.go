// Package prof is the continuous profiler: the fifth observability layer,
// watching the watchers. telemetry/trace/eventlog/slo answer "what is the
// service doing"; prof answers "what is the *process* doing while it does
// it" — where the host-side nanoseconds of each request go,
// how the Go runtime (goroutines, heap, GC, lock contention) behaves under
// load, and how much the observability stack itself costs.
//
// Three instruments, all zero-dependency and cheap enough to run always-on:
//
//   - A runtime sampler: periodic goroutine counts, heap/GC deltas from
//     runtime.MemStats, a GC pause histogram, and mutex/block contention
//     profiles (runtime.SetMutexProfileFraction / SetBlockProfileRate) with
//     top-N contended-site extraction — exported as prof_* telemetry series
//     and a /prof.json endpoint.
//   - Hot-path cost attribution: Record aggregates the host wall time of
//     each completed telemetry.Span — the one per-request record, stamped
//     by serve/core/detect across the pipeline stages queue, encode,
//     transfer, compute, verdict, observe — into prof_stage_seconds
//     histograms. The "observe" stage prices the telemetry/trace/eventlog
//     record calls themselves, so the overhead of observability is itself
//     observable.
//   - A flight recorder: a bounded in-memory ring of recent runtime samples
//     and a telemetry.SpanLog of recent request records, dumped to a JSON
//     artifact (plus a prof.flight.dump event) when an SLO page fires or an
//     incident opens, so every burn-rate page ships with the runtime state
//     that preceded it.
//
// Like the rest of the stack, a nil *Profiler is valid everywhere and
// records nothing, so instrumented code needs no "is profiling enabled"
// branches.
package prof

import (
	"context"
	"runtime"
	"sync"
	"time"

	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

// Config controls the profiler.
type Config struct {
	// SampleEvery is the background runtime-sampler period; 0 defaults to
	// 250ms. Negative disables the background goroutine entirely — samples
	// are then taken only by explicit Sample calls (tests, audits) and by
	// /prof.json scrapes and flight dumps.
	SampleEvery time.Duration
	// Ring bounds the flight recorder's retained runtime samples; 0
	// defaults to 240 (one minute at the default period).
	Ring int
	// RequestRing bounds the flight recorder's retained request records;
	// 0 defaults to 512.
	RequestRing int
	// TopN bounds the contended-site lists extracted from the mutex and
	// block profiles; 0 defaults to 8.
	TopN int
	// MutexFraction is passed to runtime.SetMutexProfileFraction: 1/n of
	// contention events are sampled. 0 defaults to 100; negative leaves the
	// process-global runtime setting untouched (for callers that own it).
	MutexFraction int
	// BlockRateNS is passed to runtime.SetBlockProfileRate: one blocking
	// event is sampled per this many nanoseconds blocked. 0 defaults to
	// 100µs; negative leaves the runtime setting untouched.
	BlockRateNS int
	// Telemetry, when non-nil, receives the prof_* series: runtime gauges
	// (prof_goroutines, prof_heap_alloc_bytes, prof_heap_objects), GC and
	// allocation counters (prof_gc_cycles_total, prof_alloc_bytes_total,
	// prof_mallocs_total), the prof_gc_pause_seconds histogram, per-stage
	// prof_stage_seconds{stage=...} histograms, and the profiler's own cost
	// (prof_sample_cost_seconds).
	Telemetry *telemetry.Registry
	// Events, when non-nil, receives the profiler's structured events:
	// prof.start (info, at construction), prof.sample (debug, per sampler
	// tick), and prof.flight.dump (warn, per flight-recorder dump).
	Events *eventlog.Logger
	// FlightExtra, when non-nil, is invoked at every flight dump and its
	// result embedded in the dump's "extra" field — subsystem state worth
	// shipping with a page (csdload wires the detection-quality
	// scorecard's Snapshot here, so a recall-burn page carries the
	// confusion matrix that burned it). The callback must be safe to call
	// from any goroutine.
	FlightExtra func() any
	// Clock overrides time.Now for sample timestamps in tests. The sampler
	// cost always uses the monotonic host clock.
	Clock func() time.Time
}

func (c *Config) defaults() {
	if c.SampleEvery == 0 {
		c.SampleEvery = 250 * time.Millisecond
	}
	if c.Ring == 0 {
		c.Ring = 240
	}
	if c.RequestRing == 0 {
		c.RequestRing = 512
	}
	if c.TopN == 0 {
		c.TopN = 8
	}
	if c.MutexFraction == 0 {
		c.MutexFraction = 100
	}
	if c.BlockRateNS == 0 {
		c.BlockRateNS = 100_000
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
}

// Sample is one runtime-sampler observation: instantaneous runtime state
// plus the deltas accumulated since the previous sample.
type Sample struct {
	// Time stamps the sample.
	Time time.Time `json:"time"`
	// Goroutines is the live goroutine count.
	Goroutines int `json:"goroutines"`
	// HeapAllocBytes and HeapObjects are the live heap at sample time.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapObjects    uint64 `json:"heap_objects"`
	// AllocBytes and Mallocs are cumulative-allocation deltas since the
	// previous sample (zero on the first).
	AllocBytes uint64 `json:"alloc_bytes_delta"`
	Mallocs    uint64 `json:"mallocs_delta"`
	// GCCycles is the completed-GC delta since the previous sample;
	// GCPausesNS are the individual stop-the-world pauses of those cycles.
	GCCycles   uint32  `json:"gc_cycles_delta"`
	GCPausesNS []int64 `json:"gc_pauses_ns,omitempty"`
	// TopMutex and TopBlock are the most contended sites from the
	// cumulative runtime mutex/block profiles, ranked by cycles (ties
	// broken by site label, so the ordering is deterministic).
	TopMutex []SiteCount `json:"top_mutex,omitempty"`
	TopBlock []SiteCount `json:"top_block,omitempty"`
	// CostNS is what taking this sample cost the host — the profiler
	// auditing itself.
	CostNS int64 `json:"cost_ns"`
}

// Profiler is the continuous profiler. All methods are safe for concurrent
// use and valid on a nil receiver (recording nothing).
type Profiler struct {
	cfg Config

	// Sampler state: the previous MemStats for delta computation.
	mu        sync.Mutex
	prev      runtime.MemStats
	hasPrev   bool
	prevMutex int // SetMutexProfileFraction value to restore at Close

	flight *flight

	// Per-stage aggregation for Snapshot (telemetry histograms hold the
	// full distributions; these scalars feed /prof.json without a registry).
	stageCount [telemetry.NumStages]int64
	stageWall  [telemetry.NumStages]int64
	requests   int64
	samples    int64
	dumps      int64

	goroutinesG *telemetry.Gauge
	heapG       *telemetry.Gauge
	heapObjG    *telemetry.Gauge
	allocC      *telemetry.Counter
	mallocsC    *telemetry.Counter
	gcC         *telemetry.Counter
	pauseH      *telemetry.Histogram
	costH       *telemetry.Histogram
	stageH      [telemetry.NumStages]*telemetry.Histogram
	requestH    *telemetry.Histogram
	requestsC   *telemetry.Counter
	dumpsC      *telemetry.Counter

	quit chan struct{}
	wg   sync.WaitGroup
}

// New builds a profiler, enables the runtime contention profiles (per
// Config.MutexFraction / BlockRateNS), and — unless SampleEvery is negative
// — starts the background sampler goroutine. Close stops the goroutine and
// restores the previous mutex-profile fraction.
func New(cfg Config) (*Profiler, error) {
	cfg.defaults()
	p := &Profiler{
		cfg:    cfg,
		flight: newFlight(cfg.Ring, cfg.RequestRing),
		quit:   make(chan struct{}),
	}
	reg := cfg.Telemetry
	p.goroutinesG = reg.Gauge("prof_goroutines", "Live goroutines at the last runtime sample.")
	p.heapG = reg.Gauge("prof_heap_alloc_bytes", "Bytes of allocated heap objects at the last runtime sample.")
	p.heapObjG = reg.Gauge("prof_heap_objects", "Live heap objects at the last runtime sample.")
	p.allocC = reg.Counter("prof_alloc_bytes_total", "Cumulative bytes allocated, accumulated across runtime samples.")
	p.mallocsC = reg.Counter("prof_mallocs_total", "Cumulative heap allocations, accumulated across runtime samples.")
	p.gcC = reg.Counter("prof_gc_cycles_total", "Completed garbage-collection cycles, accumulated across runtime samples.")
	p.pauseH = reg.Histogram("prof_gc_pause_seconds",
		"Individual GC stop-the-world pauses observed by the runtime sampler.", telemetry.Buckets{})
	p.costH = reg.Histogram("prof_sample_cost_seconds",
		"Host cost of taking one runtime sample — the profiler auditing itself.", telemetry.Buckets{})
	for s := telemetry.Stage(0); s < telemetry.NumStages; s++ {
		p.stageH[s] = reg.Histogram("prof_stage_seconds",
			"Host wall-clock cost per request, attributed to pipeline stages.",
			telemetry.Buckets{}, telemetry.L("stage", s.String()))
	}
	p.requestH = reg.Histogram("prof_request_wall_seconds",
		"Total attributed host wall-clock cost per request.", telemetry.Buckets{})
	p.requestsC = reg.Counter("prof_requests_total", "Request records aggregated.")
	p.dumpsC = reg.Counter("prof_flight_dumps_total", "Flight-recorder dumps written.")

	if cfg.MutexFraction > 0 {
		p.prevMutex = runtime.SetMutexProfileFraction(cfg.MutexFraction)
	} else {
		p.prevMutex = runtime.SetMutexProfileFraction(-1) // read without changing
	}
	if cfg.BlockRateNS > 0 {
		runtime.SetBlockProfileRate(cfg.BlockRateNS)
	}
	cfg.Events.Info(context.Background(), "prof", "prof.start",
		eventlog.F("sample_every_ns", cfg.SampleEvery),
		eventlog.F("ring", cfg.Ring),
		eventlog.F("mutex_fraction", cfg.MutexFraction),
		eventlog.F("block_rate_ns", cfg.BlockRateNS))
	if cfg.SampleEvery > 0 {
		p.wg.Add(1)
		go p.loop()
	}
	return p, nil
}

// loop is the background sampler.
func (p *Profiler) loop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.SampleEvery)
	defer t.Stop()
	for {
		select {
		case <-p.quit:
			return
		case <-t.C:
			p.Sample()
		}
	}
}

// Sample takes one runtime sample immediately: reads MemStats and the
// contention profiles, updates the prof_* series, appends to the flight
// recorder, and returns the sample. Safe to call concurrently with the
// background sampler; a nil profiler returns the zero Sample.
func (p *Profiler) Sample() Sample {
	if p == nil {
		return Sample{}
	}
	start := time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	p.mu.Lock()
	s := Sample{
		Time:           p.cfg.Clock(),
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapObjects:    ms.HeapObjects,
	}
	if p.hasPrev {
		s.AllocBytes = ms.TotalAlloc - p.prev.TotalAlloc
		s.Mallocs = ms.Mallocs - p.prev.Mallocs
		s.GCCycles = ms.NumGC - p.prev.NumGC
		// MemStats keeps the last 256 pauses in a ring indexed by cycle
		// number; extract only the cycles this sample covers.
		from := p.prev.NumGC
		if ms.NumGC > from+256 {
			from = ms.NumGC - 256
		}
		for i := from; i < ms.NumGC; i++ {
			s.GCPausesNS = append(s.GCPausesNS, int64(ms.PauseNs[(i+255)%256]))
		}
	}
	p.prev = ms
	p.hasPrev = true
	s.TopMutex = topSites(runtime.MutexProfile, p.cfg.TopN)
	s.TopBlock = topSites(runtime.BlockProfile, p.cfg.TopN)
	s.CostNS = int64(time.Since(start))
	p.samples++
	p.mu.Unlock()
	p.flight.addSample(s)

	p.goroutinesG.Set(int64(s.Goroutines))
	p.heapG.Set(int64(s.HeapAllocBytes))
	p.heapObjG.Set(int64(s.HeapObjects))
	p.allocC.Add(int64(s.AllocBytes))
	p.mallocsC.Add(int64(s.Mallocs))
	p.gcC.Add(int64(s.GCCycles))
	for _, pause := range s.GCPausesNS {
		p.pauseH.Observe(pause)
	}
	p.costH.Observe(s.CostNS)
	if p.cfg.Events.Enabled(eventlog.LevelDebug) {
		p.cfg.Events.Debug(context.Background(), "prof", "prof.sample",
			eventlog.F("goroutines", s.Goroutines),
			eventlog.F("heap_alloc_bytes", s.HeapAllocBytes),
			eventlog.F("gc_cycles_delta", s.GCCycles),
			eventlog.F("cost_ns", s.CostNS))
	}
	return s
}

// Record aggregates a completed request's host wall time into the
// per-stage histograms and keeps the record in the flight recorder. The
// creator of a span records it once, when the request completes.
func (p *Profiler) Record(sp *telemetry.Span) {
	if p == nil || sp == nil {
		return
	}
	p.requestH.ObserveDuration(sp.Wall.Total())
	p.requestsC.Inc()
	p.mu.Lock()
	for s, w := range sp.Wall {
		if w != 0 {
			p.stageH[s].ObserveDuration(w)
			p.stageCount[s]++
			p.stageWall[s] += int64(w)
		}
	}
	p.requests++
	p.mu.Unlock()
	p.flight.requests.Add(*sp)
}

// Close stops the background sampler and restores the mutex-profile
// fraction that was in effect before New (the block-profile rate is set
// back to 0, the runtime default). Close is idempotent-safe only for a
// single call; the profiler is done after it.
func (p *Profiler) Close() error {
	if p == nil {
		return nil
	}
	close(p.quit)
	p.wg.Wait()
	if p.cfg.MutexFraction > 0 {
		runtime.SetMutexProfileFraction(p.prevMutex)
	}
	if p.cfg.BlockRateNS > 0 {
		runtime.SetBlockProfileRate(0)
	}
	return nil
}
