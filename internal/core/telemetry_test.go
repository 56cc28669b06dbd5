package core

import (
	"context"
	"testing"

	"github.com/kfrida1/csdinf/internal/activation"
	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/ssd"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

// TestEngineRecordsTelemetry deploys against a registry and checks each
// classification lands in the transfer/compute histograms, the prediction
// counter, and any span riding the context — with the simulated timings,
// not wall time.
func TestEngineRecordsTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	dev, err := csd.New(csd.Config{SSD: ssd.Config{Capacity: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := lstm.NewModel(lstm.Config{
		VocabSize: 30, EmbedDim: 4, HiddenSize: 8, CellActivation: activation.Softsign,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Deploy(dev, m, DeployConfig{SeqLen: 10, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}

	seq := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	sp := &telemetry.Span{Name: "test"}
	ctx := telemetry.WithSpan(context.Background(), sp)
	const n = 3
	var lastTiming Timing
	for i := 0; i < n; i++ {
		_, timing, err := eng.Predict(ctx, seq)
		if err != nil {
			t.Fatal(err)
		}
		lastTiming = timing
	}

	var xfer, compute *telemetry.HistogramSnapshot
	var preds int64
	for _, mt := range reg.Snapshot() {
		switch mt.Name {
		case "engine_transfer_seconds":
			h := *mt.Histogram
			xfer = &h
		case "engine_compute_seconds":
			h := *mt.Histogram
			compute = &h
		case "engine_predictions_total":
			preds = mt.Value
		}
	}
	if xfer == nil || compute == nil {
		t.Fatal("engine histograms not registered")
	}
	if xfer.Count != n || compute.Count != n {
		t.Fatalf("histogram counts transfer=%d compute=%d, want %d", xfer.Count, compute.Count, n)
	}
	if preds != n {
		t.Fatalf("engine_predictions_total = %d, want %d", preds, n)
	}
	// The histograms must hold the simulated device model's timings: every
	// identical classification costs the same, so min == max == observed.
	if xfer.Min != int64(lastTiming.Transfer) || xfer.Max != int64(lastTiming.Transfer) {
		t.Fatalf("transfer histogram [%d, %d] != simulated %d", xfer.Min, xfer.Max, lastTiming.Transfer)
	}
	if compute.Min != int64(lastTiming.Compute) || compute.Max != int64(lastTiming.Compute) {
		t.Fatalf("compute histogram [%d, %d] != simulated %d", compute.Min, compute.Max, lastTiming.Compute)
	}

	// The span accumulated the simulated timings of every prediction on its
	// Sim clock, and the host cost of running the kernel model on Wall.
	if sp.Sim[telemetry.StageTransfer] != n*lastTiming.Transfer || sp.Sim[telemetry.StageCompute] != n*lastTiming.Compute {
		t.Fatalf("span sim = %v, want %d× transfer %v, compute %v", sp.Sim, n, lastTiming.Transfer, lastTiming.Compute)
	}
	if sp.Sim.Total() != n*lastTiming.Total() {
		t.Fatalf("span sim stages beyond transfer/compute: %v", sp.Sim)
	}
	if sp.Wall[telemetry.StageCompute] <= 0 {
		t.Fatalf("span wall compute = %v, want the host cost", sp.Wall[telemetry.StageCompute])
	}
}

// TestEngineWithoutTelemetryStillCounts: a nil registry hands out detached
// instruments; classification must work identically.
func TestEngineWithoutTelemetryStillCounts(t *testing.T) {
	_, eng := testSetup(t, 0, 10)
	if _, _, err := eng.Predict(context.Background(), []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); err != nil {
		t.Fatal(err)
	}
	if eng.predictions.Value() != 1 {
		t.Fatalf("detached prediction counter = %d", eng.predictions.Value())
	}
}
