package prof

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

// flight is the flight recorder's state: a bounded ring of recent runtime
// samples and a span log of recent request records.
type flight struct {
	mu       sync.Mutex
	samples  []Sample
	next     int
	requests *telemetry.SpanLog
}

func newFlight(samples, requests int) *flight {
	return &flight{
		samples:  make([]Sample, 0, samples),
		requests: telemetry.NewSpanLog(requests),
	}
}

func (f *flight) addSample(s Sample) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.samples) < cap(f.samples) {
		f.samples = append(f.samples, s)
		return
	}
	f.samples[f.next] = s
	f.next = (f.next + 1) % len(f.samples)
}

// snapshot returns the retained samples and request records, oldest first.
func (f *flight) snapshot() ([]Sample, []telemetry.Span) {
	f.mu.Lock()
	s := make([]Sample, 0, len(f.samples))
	s = append(s, f.samples[f.next:]...)
	s = append(s, f.samples[:f.next]...)
	f.mu.Unlock()
	return s, f.requests.Snapshot()
}

// FlightDump is one flight-recorder dump: the retained runtime samples and
// request records at the moment something went wrong, stamped with the
// reason and (when an incident triggered it) the incident ID — the
// correlation keys back to /incidents.json, /events.json, and the trace.
type FlightDump struct {
	Reason     string           `json:"reason"`
	IncidentID int64            `json:"incident_id,omitempty"`
	Time       time.Time        `json:"time"`
	Seq        int64            `json:"seq"`
	Samples    []Sample         `json:"samples"`
	Requests   []telemetry.Span `json:"requests"`
	// Extra is the Config.FlightExtra payload captured at dump time
	// (e.g. the detection-quality scorecard snapshot); absent when no
	// hook is configured.
	Extra any `json:"extra,omitempty"`
}

// Flight snapshots the flight recorder. A fresh runtime sample is taken
// first, so the dump always carries the state at the trigger instant even
// when the background sampler period is long. Nil-safe.
func (p *Profiler) Flight(reason string, incidentID int64) FlightDump {
	if p == nil {
		return FlightDump{Reason: reason, IncidentID: incidentID}
	}
	p.Sample()
	samples, requests := p.flight.snapshot()
	p.mu.Lock()
	p.dumps++
	seq := p.dumps
	p.mu.Unlock()
	d := FlightDump{
		Reason: reason, IncidentID: incidentID,
		Time: p.cfg.Clock(), Seq: seq,
		Samples: samples, Requests: requests,
	}
	if p.cfg.FlightExtra != nil {
		d.Extra = p.cfg.FlightExtra()
	}
	return d
}

// WriteFlight dumps the flight recorder to dir/flight-<seq>.json and emits
// the prof.flight.dump event. Wire it to incident.Config.OnOpen and
// slo.Config.OnPage so every page ships with the runtime state that
// preceded it. A nil profiler writes nothing and returns "".
func (p *Profiler) WriteFlight(dir, reason string, incidentID int64) (string, error) {
	if p == nil {
		return "", nil
	}
	d := p.Flight(reason, incidentID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("flight-%03d.json", d.Seq))
	if err := writeJSON(path, d); err != nil {
		return "", err
	}
	p.dumpsC.Inc()
	p.cfg.Events.Warn(context.Background(), "prof", "prof.flight.dump",
		eventlog.F("path", path),
		eventlog.F("reason", reason),
		eventlog.F("incident_id", incidentID),
		eventlog.F("samples", len(d.Samples)),
		eventlog.F("requests", len(d.Requests)))
	return path, nil
}

// WriteSnapshot writes the profiler snapshot (the /prof.json document) to
// dir/prof.json — the end-of-run artifact uploaded by `make prof-smoke`.
// A nil profiler writes nothing and returns "".
func (p *Profiler) WriteSnapshot(dir string) (string, error) {
	if p == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "prof.json")
	if err := writeJSON(path, p.Snapshot()); err != nil {
		return "", err
	}
	return path, nil
}

func writeJSON(path string, doc any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
