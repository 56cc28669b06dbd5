package fleet

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/kfrida1/csdinf/internal/activation"
	"github.com/kfrida1/csdinf/internal/core"
	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/prof"
	"github.com/kfrida1/csdinf/internal/ssd"
	"github.com/kfrida1/csdinf/internal/telemetry"
	"github.com/kfrida1/csdinf/internal/trace"
)

// TestLeastBusyPlacement pins the untenanted branch of place: requests
// without a tenant go to the ready device with the least simulated
// outstanding work, so a 10× cost asymmetry steers most of them to the
// fast device (round-robin would split 11/11).
func TestLeastBusyPlacement(t *testing.T) {
	slow := &fakeInf{seqLen: 8, cost: 10 * time.Millisecond}
	fast := &fakeInf{seqLen: 8, cost: time.Millisecond}
	f, err := NewFromEngines([]infer.Inferencer{slow, fast}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 22; i++ {
		if _, _, err := f.Predict(context.Background(), seq()); err != nil {
			t.Fatal(err)
		}
	}
	sc, fc := slow.execs.Load(), fast.execs.Load()
	if sc+fc != 22 {
		t.Fatalf("calls = %d + %d, want 22", sc, fc)
	}
	if fc <= 2*sc {
		t.Fatalf("least-busy placement ineffective: slow %d, fast %d", sc, fc)
	}
}

// TestDeviceStatsOrderedByID pins the deterministic ordering contract:
// Stats() is sorted by registry ID, so multi-device output diffs cleanly
// at any fleet size.
func TestDeviceStatsOrderedByID(t *testing.T) {
	engs, _ := engines(4)
	f, err := NewFromEngines(engs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st := f.Stats()
	ids := make([]string, len(st))
	for i, n := range st {
		ids[i] = n.Serve.ID
		if n.Serve.State != "ready" {
			t.Fatalf("device %s state %q, want ready", n.Serve.ID, n.Serve.State)
		}
	}
	want := []string{"csd-000", "csd-001", "csd-002", "csd-003"}
	if !sort.StringsAreSorted(ids) || len(ids) != len(want) {
		t.Fatalf("stats IDs = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("stats IDs = %v, want %v", ids, want)
		}
	}
}

// TestConcurrentStress drives 64 concurrent callers, mixing live and
// stored windows, through a 4-node fleet of real simulated CSDs with spans,
// tracing and the profiler on — run under -race, it proves each node's
// scheduler serializes its engine, that untenanted placement reaches every
// node, and that every request's record is stamped with its job and device.
func TestConcurrentStress(t *testing.T) {
	m, err := lstm.NewModel(lstm.Config{
		VocabSize: 20, EmbedDim: 4, HiddenSize: 6, CellActivation: activation.Softsign,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const callers, perCaller = 64, 8
	spans := telemetry.NewSpanLog(callers * perCaller)
	profiler, err := prof.New(prof.Config{SampleEvery: -1, MutexFraction: -1, BlockRateNS: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer profiler.Close()
	f, err := New(m, Config{
		Nodes: 4, Block: true,
		CSD:    csd.Config{SSD: ssd.Config{Capacity: 1 << 20}},
		Deploy: core.DeployConfig{SeqLen: 8},
		Spans:  spans, Trace: trace.New(), Prof: profiler,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Mirror the scan target on every drive: stored requests may land on
	// any node.
	for i := 0; i < f.Nodes(); i++ {
		if _, err := f.Device(i).StoreSequence(0, seq()); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				var err error
				if (g+i)%2 == 0 {
					_, _, err = f.Predict(context.Background(), seq())
				} else {
					_, _, err = f.PredictStored(context.Background(), 0)
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	var jobs int64
	for _, st := range f.Stats() {
		if st.Serve.Jobs == 0 {
			t.Errorf("node %s served nothing; placement starved it", st.Serve.ID)
		}
		jobs += st.Serve.Jobs
	}
	if jobs != callers*perCaller {
		t.Fatalf("total jobs = %d, want %d", jobs, callers*perCaller)
	}
	records := spans.Snapshot()
	if len(records) != callers*perCaller {
		t.Fatalf("%d request records logged, want %d", len(records), callers*perCaller)
	}
	seen := make(map[int64]bool, len(records))
	for _, sp := range records {
		if sp.Job == 0 || sp.Device == "" || seen[sp.Job] {
			t.Fatalf("record %+v: want a unique job and a device", sp)
		}
		seen[sp.Job] = true
	}
	if n := profiler.Snapshot().RequestsTotal; n != callers*perCaller {
		t.Fatalf("profiler recorded %d requests, want %d", n, callers*perCaller)
	}
}
