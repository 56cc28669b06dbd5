package main

import (
	"fmt"

	"github.com/kfrida1/csdinf/internal/core"
	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/fleet"
	"github.com/kfrida1/csdinf/internal/incident"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/prof"
	"github.com/kfrida1/csdinf/internal/quality"
	"github.com/kfrida1/csdinf/internal/telemetry"
	"github.com/kfrida1/csdinf/internal/trace"
)

// fleetNodes sizes the fleet for a 2-vCPU host: one node per core.
const fleetNodes = 2

// observability is the production stack csdload runs with -prof: metrics,
// span log, event log, device tracer, continuous profiler, incident
// recorder and quality scorecard. Every field may be nil.
type observability struct {
	reg       *telemetry.Registry
	spans     *telemetry.SpanLog
	events    *eventlog.Logger
	tracer    *trace.Tracer
	prof      *prof.Profiler
	incidents *incident.Recorder
	quality   *quality.Scorecard
}

// newObservability builds the full stack when full is set, else only the
// quality scorecard and incident recorder the stream workload attaches.
func newObservability(full bool) (*observability, error) {
	o := &observability{}
	var err error
	if full {
		o.reg = telemetry.NewRegistry()
		o.spans = telemetry.NewSpanLog(256)
		o.events = eventlog.New(eventlog.Config{})
		o.tracer = trace.New()
		if o.prof, err = prof.New(prof.Config{Telemetry: o.reg, Events: o.events}); err != nil {
			o.close()
			return nil, err
		}
	}
	if o.incidents, err = incident.NewRecorder(incident.Config{Events: o.events}); err != nil {
		o.close()
		return nil, err
	}
	if o.quality, err = quality.New(quality.Config{Telemetry: o.reg, Events: o.events}); err != nil {
		o.close()
		return nil, err
	}
	return o, nil
}

func (o *observability) close() {
	if o.prof != nil {
		o.prof.Close()
	}
	if o.events != nil {
		o.events.Close()
	}
}

// stack is the system under test: fleetNodes simulated SmartSSDs, each
// with the model deployed (DRC and overflow proof included), behind one
// fleet. The fleet is built over tracedEngine wrappers so the benchmark
// can time engine calls from outside.
type stack struct {
	devs    []*csd.SmartSSD
	engines []*core.Engine
	fleet   *fleet.Fleet
	obs     *observability
}

func newStack(m *lstm.Model, obs *observability, rec *recorder) (*stack, error) {
	s := &stack{obs: obs}
	wrapped := make([]infer.Inferencer, fleetNodes)
	for i := 0; i < fleetNodes; i++ {
		dev, err := csd.New(csd.Config{})
		if err != nil {
			return nil, err
		}
		eng, err := core.Deploy(dev, m, core.DeployConfig{
			SeqLen:    seqLen,
			Telemetry: obs.reg,
			Trace:     obs.tracer,
			TraceName: fmt.Sprintf("csd-%03d", i),
			Events:    obs.events,
		})
		if err != nil {
			return nil, fmt.Errorf("deploy engine %d: %w", i, err)
		}
		s.devs = append(s.devs, dev)
		s.engines = append(s.engines, eng)
		wrapped[i] = tracedEngine{eng: eng, rec: rec}
	}
	fl, err := fleet.NewFromEngines(wrapped, fleet.Config{
		Telemetry: obs.reg,
		Spans:     obs.spans,
		Trace:     obs.tracer,
		Events:    obs.events,
		Incidents: obs.incidents,
		Prof:      obs.prof,
	})
	if err != nil {
		return nil, err
	}
	s.fleet = fl
	return s, nil
}

func (s *stack) close() {
	s.fleet.Close()
	s.obs.close()
}

// traffic sums the devices' cumulative host and P2P bytes.
func (s *stack) traffic() csd.Traffic {
	var t csd.Traffic
	for _, d := range s.devs {
		x := d.Traffic()
		t.HostBytes += x.HostBytes
		t.P2PBytes += x.P2PBytes
	}
	return t
}

// counter reads a fleet telemetry counter summed over its label sets; zero
// when the stack runs without telemetry.
func (s *stack) counter(name string) int64 {
	var n int64
	for _, m := range s.obs.reg.Snapshot() {
		if m.Name == name {
			n += m.Value
		}
	}
	return n
}
