package prof

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

// newManual builds a profiler with no background goroutine and no global
// profile-rate changes, suitable for deterministic unit tests.
func newManual(t *testing.T, cfg Config) *Profiler {
	t.Helper()
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = -1
	}
	if cfg.MutexFraction == 0 {
		cfg.MutexFraction = -1
	}
	if cfg.BlockRateNS == 0 {
		cfg.BlockRateNS = -1
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestNilProfilerIsInert(t *testing.T) {
	var p *Profiler
	if s := p.Sample(); s.Goroutines != 0 {
		t.Fatalf("nil Sample = %+v", s)
	}
	p.Record(nil)
	p.Record(&telemetry.Span{Wall: telemetry.Stages{telemetry.StageQueue: time.Second}})
	if path, err := p.WriteFlight(t.TempDir(), "test", 0); err != nil || path != "" {
		t.Fatalf("nil WriteFlight = %q, %v", path, err)
	}
	// Nil handler still serves a well-formed disabled document.
	rr := httptest.NewRecorder()
	p.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/prof.json", nil))
	var snap Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("nil handler JSON: %v", err)
	}
	if snap.Enabled {
		t.Fatal("nil profiler reports enabled")
	}
}

func TestSampleDeltasAndGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := newManual(t, Config{Telemetry: reg})
	p.Sample() // establish the baseline

	// Allocate measurably and force a GC so the second sample carries
	// allocation deltas and at least one pause.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 16<<10))
	}
	runtime.GC()
	s := p.Sample()
	_ = sink

	if s.Goroutines <= 0 {
		t.Fatalf("goroutines = %d", s.Goroutines)
	}
	if s.HeapAllocBytes == 0 || s.HeapObjects == 0 {
		t.Fatalf("heap sample empty: %+v", s)
	}
	if s.Mallocs == 0 || s.AllocBytes == 0 {
		t.Fatalf("allocation deltas empty: mallocs=%d bytes=%d", s.Mallocs, s.AllocBytes)
	}
	if s.GCCycles == 0 || len(s.GCPausesNS) == 0 {
		t.Fatalf("GC not observed: cycles=%d pauses=%d", s.GCCycles, len(s.GCPausesNS))
	}
	if s.CostNS <= 0 {
		t.Fatalf("sample cost = %d", s.CostNS)
	}

	// The prof_* series mirror the sample.
	found := map[string]bool{}
	for _, m := range reg.Snapshot() {
		found[m.Name] = true
	}
	for _, name := range []string{
		"prof_goroutines", "prof_heap_alloc_bytes", "prof_heap_objects",
		"prof_alloc_bytes_total", "prof_mallocs_total", "prof_gc_cycles_total",
		"prof_gc_pause_seconds", "prof_sample_cost_seconds",
	} {
		if !found[name] {
			t.Errorf("series %s missing from registry snapshot", name)
		}
	}
}

// TestRecordAggregatesWallStages: Record folds a span's host wall time into
// the per-stage aggregates and keeps the whole record — both clocks — in
// the flight recorder.
func TestRecordAggregatesWallStages(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := newManual(t, Config{Telemetry: reg})
	sp := &telemetry.Span{Name: "window", Job: 42, Device: "csd-000"}
	sp.Add(telemetry.StageQueue, 10*time.Microsecond)
	sp.Add(telemetry.StageCompute, time.Millisecond)
	sp.Sim[telemetry.StageCompute] = 215 * time.Microsecond

	p.Record(sp)
	snap := p.Snapshot()
	if snap.RequestsTotal != 1 {
		t.Fatalf("requests_total = %d", snap.RequestsTotal)
	}
	stages := map[string]StageSummary{}
	for _, s := range snap.Stages {
		stages[s.Stage] = s
	}
	if len(stages) != 2 || stages["queue"].TotalNS != int64(10*time.Microsecond) {
		t.Fatalf("stage summaries = %+v", snap.Stages)
	}
	if stages["compute"].Count != 1 || stages["compute"].TotalNS != int64(time.Millisecond) {
		t.Fatalf("compute summary = %+v (simulated time must not leak into wall)", stages["compute"])
	}
	for _, m := range reg.Snapshot() {
		if m.Name == "prof_request_wall_seconds" && m.Histogram.Sum != int64(time.Millisecond+10*time.Microsecond) {
			t.Fatalf("request wall sum = %d", m.Histogram.Sum)
		}
	}
	if len(snap.Requests) != 1 || snap.Requests[0] != *sp {
		t.Fatalf("flight requests = %+v", snap.Requests)
	}
}

func TestFlightRingBoundedAndOrdered(t *testing.T) {
	now := time.Unix(1000, 0)
	p := newManual(t, Config{Ring: 4, RequestRing: 3,
		Clock: func() time.Time { now = now.Add(time.Second); return now }})
	for i := 0; i < 6; i++ {
		p.Sample()
	}
	for i := 0; i < 5; i++ {
		p.Record(&telemetry.Span{Job: int64(100 + i), Wall: telemetry.Stages{telemetry.StageQueue: time.Microsecond}})
	}
	samples, requests := p.flight.snapshot()
	if len(samples) != 4 {
		t.Fatalf("samples retained = %d, want 4", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if !samples[i].Time.After(samples[i-1].Time) {
			t.Fatalf("samples out of order: %v", samples)
		}
	}
	if len(requests) != 3 {
		t.Fatalf("requests retained = %d, want 3", len(requests))
	}
	if requests[0].Job != 102 || requests[2].Job != 104 {
		t.Fatalf("request eviction wrong: %+v", requests)
	}
}

func TestWriteFlightDumpArtifactAndEvent(t *testing.T) {
	events := eventlog.New(eventlog.Config{})
	defer events.Close()
	p := newManual(t, Config{Events: events})
	p.Record(&telemetry.Span{Job: 9, Wall: telemetry.Stages{telemetry.StageCompute: time.Millisecond}})

	dir := t.TempDir()
	path, err := p.WriteFlight(dir, "incident-open", 17)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "flight-001.json" {
		t.Fatalf("dump path = %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Reason != "incident-open" || d.IncidentID != 17 {
		t.Fatalf("dump header = %+v", d)
	}
	if len(d.Samples) == 0 {
		t.Fatal("dump carries no runtime samples")
	}
	if len(d.Requests) != 1 || d.Requests[0].Job != 9 {
		t.Fatalf("dump requests = %+v", d.Requests)
	}

	var dumpEv *eventlog.Event
	for _, ev := range events.Recent() {
		if ev.Name == "prof.flight.dump" {
			e := ev
			dumpEv = &e
		}
	}
	if dumpEv == nil {
		t.Fatal("no prof.flight.dump event emitted")
	}
	if dumpEv.Component != "prof" || dumpEv.Level != eventlog.LevelWarn {
		t.Fatalf("dump event = %+v", dumpEv)
	}

	// A second dump gets the next sequence number.
	path2, err := p.WriteFlight(dir, "slo-page", 18)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path2) != "flight-002.json" {
		t.Fatalf("second dump path = %s", path2)
	}
}

func TestHandlerServesSnapshot(t *testing.T) {
	p := newManual(t, Config{})
	p.Record(&telemetry.Span{Wall: telemetry.Stages{telemetry.StageObserve: time.Microsecond}})
	rr := httptest.NewRecorder()
	p.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/prof.json", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "json") {
		t.Fatalf("content type = %s", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Enabled || snap.RequestsTotal != 1 || snap.Last.Goroutines == 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestWriteSnapshotArtifact(t *testing.T) {
	p := newManual(t, Config{})
	dir := t.TempDir()
	path, err := p.WriteSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "prof.json" {
		t.Fatalf("snapshot path = %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Enabled {
		t.Fatal("snapshot artifact reports disabled")
	}
}

func TestBackgroundSamplerTicks(t *testing.T) {
	p, err := New(Config{SampleEvery: 2 * time.Millisecond, MutexFraction: -1, BlockRateNS: -1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if p.Snapshot().SamplesTotal >= 3 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	got := p.Snapshot().SamplesTotal
	p.Close()
	if got < 3 {
		t.Fatalf("background sampler took %d samples, want >= 3", got)
	}
}
