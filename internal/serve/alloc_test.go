package serve

import (
	"context"
	"testing"

	"github.com/kfrida1/csdinf/internal/activation"
	"github.com/kfrida1/csdinf/internal/core"
	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/prof"
	"github.com/kfrida1/csdinf/internal/telemetry"
	"github.com/kfrida1/csdinf/internal/trace"
)

// maxObservePremium bounds the heap allocations full observability adds to
// one request. The request record rides the request by value, so what is
// left is the context value carrying it and the tracer's event storage.
const maxObservePremium = 5

// TestObservedPredictAllocPremium pins the allocation premium of a fully
// observed Predict — span log, tracer, profiler, event log and engine
// telemetry — over the same request on a bare stack. Allocation counts are
// deterministic, so unlike a nanosecond figure the bound holds on any host.
func TestObservedPredictAllocPremium(t *testing.T) {
	m, err := lstm.NewModel(lstm.Config{
		VocabSize: 30, EmbedDim: 4, HiddenSize: 8, CellActivation: activation.Softsign,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	build := func(observed bool) *Server {
		var (
			reg      *telemetry.Registry
			spans    *telemetry.SpanLog
			tracer   *trace.Tracer
			events   *eventlog.Logger
			profiler *prof.Profiler
		)
		if observed {
			reg = telemetry.NewRegistry()
			spans = telemetry.NewSpanLog(256)
			tracer = trace.New()
			events = eventlog.New(eventlog.Config{})
			t.Cleanup(func() { events.Close() })
			if profiler, err = prof.New(prof.Config{
				SampleEvery: -1, MutexFraction: -1, BlockRateNS: -1,
				Telemetry: reg, Events: events,
			}); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { profiler.Close() })
		}
		dev, err := csd.New(csd.Config{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.Deploy(dev, m, core.DeployConfig{
			SeqLen: len(seq), Telemetry: reg, Trace: tracer, Events: events,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New([]infer.Inferencer{eng}, Config{
			Telemetry: reg, Spans: spans, Trace: tracer, Events: events, Prof: profiler,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	allocs := func(s *Server) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, _, err := s.Predict(context.Background(), seq); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare, observed := allocs(build(false)), allocs(build(true))
	if premium := observed - bare; premium > maxObservePremium {
		t.Fatalf("observed Predict allocates %.1f/op against %.1f bare: premium %.1f > %d",
			observed, bare, premium, maxObservePremium)
	}
	t.Logf("allocs/op: bare %.1f, observed %.1f", bare, observed)
}
