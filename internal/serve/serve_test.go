package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/kernels"
)

// fakeInf is a controllable engine: it charges a fixed simulated cost and
// can be gated so requests stay in flight (or queued) while a test arranges
// the scenario it wants.
type fakeInf struct {
	seqLen  int
	cost    time.Duration
	calls   atomic.Int64
	started chan struct{} // when non-nil, receives a token as a call begins
	release chan struct{} // when non-nil, every call waits for a token
}

func (f *fakeInf) exec() (kernels.Result, infer.Timing, error) {
	f.calls.Add(1)
	if f.started != nil {
		f.started <- struct{}{}
	}
	if f.release != nil {
		<-f.release
	}
	return kernels.Result{Probability: 0.1}, infer.Timing{Compute: f.cost}, nil
}

func (f *fakeInf) Predict(ctx context.Context, seq []int) (kernels.Result, infer.Timing, error) {
	return f.exec()
}

func (f *fakeInf) PredictStored(ctx context.Context, ssdOff int64) (kernels.Result, infer.Timing, error) {
	return f.exec()
}

func (f *fakeInf) SeqLen() int { return f.seqLen }

func testSeq() []int { return []int{1, 2, 3, 4, 5, 6, 7, 8} }

// waitQueued polls until the device's backlog reaches want.
func waitQueued(t *testing.T, s *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().Queued >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("backlog never reached %d (stats %+v)", want, s.Stats())
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("no engines: expected error")
	}
	if _, err := New([]infer.Inferencer{nil}, Config{}); err == nil {
		t.Error("nil engine: expected error")
	}
	if _, err := New([]infer.Inferencer{&fakeInf{seqLen: 8}, &fakeInf{seqLen: 8}}, Config{}); err == nil {
		t.Error("two engines: expected error (placement across devices is the fleet's job)")
	}
	if _, err := New([]infer.Inferencer{&fakeInf{seqLen: 4}}, Config{QueueDepth: -1}); err == nil {
		t.Error("negative queue depth: expected error")
	}
	if _, err := New([]infer.Inferencer{&fakeInf{seqLen: 4}}, Config{BatchMax: -1}); err == nil {
		t.Error("negative batch max: expected error")
	}
	s, err := New([]infer.Inferencer{&fakeInf{seqLen: 8}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.SeqLen() != 8 {
		t.Fatalf("SeqLen = %d", s.SeqLen())
	}
	if st := s.Stats(); st.ID != "csd-000" || st.State != "ready" {
		t.Fatalf("private device = %s (%s), want csd-000 (ready)", st.ID, st.State)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	f := &fakeInf{seqLen: 8, started: make(chan struct{}, 8), release: make(chan struct{}, 8)}
	s, err := New([]infer.Inferencer{f}, Config{QueueDepth: 1, BatchMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	results := make(chan error, 2)
	submit := func() {
		defer wg.Done()
		_, _, err := s.Predict(context.Background(), testSeq())
		results <- err
	}
	wg.Add(1)
	go submit() // A: begins executing
	<-f.started
	wg.Add(1)
	go submit() // B: sits in the depth-1 queue
	waitQueued(t, s, 2)
	// C: queue is full, non-blocking mode sheds immediately.
	if _, _, err := s.Predict(context.Background(), testSeq()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("saturated submit error = %v, want ErrQueueFull", err)
	}
	f.release <- struct{}{}
	f.release <- struct{}{}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
}

func TestBlockingBackpressureHonorsCancel(t *testing.T) {
	f := &fakeInf{seqLen: 8, started: make(chan struct{}, 8), release: make(chan struct{}, 8)}
	s, err := New([]infer.Inferencer{f}, Config{QueueDepth: 1, Block: true, BatchMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	submit := func() {
		defer wg.Done()
		s.Predict(context.Background(), testSeq())
	}
	wg.Add(1)
	go submit() // A: executing
	<-f.started
	wg.Add(1)
	go submit() // B: queued
	waitQueued(t, s, 2)
	// C: blocks in the queue send until its context is canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cErr := make(chan error, 1)
	go func() {
		_, _, err := s.Predict(ctx, testSeq())
		cErr <- err
	}()
	waitQueued(t, s, 3) // pending counts the blocked sender
	cancel()
	if err := <-cErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked submit error = %v, want context.Canceled", err)
	}
	f.release <- struct{}{}
	f.release <- struct{}{}
	wg.Wait()
}

func TestCanceledQueuedRequestNeverReachesDevice(t *testing.T) {
	f := &fakeInf{seqLen: 8, started: make(chan struct{}, 8), release: make(chan struct{}, 8)}
	s, err := New([]infer.Inferencer{f}, Config{QueueDepth: 4, BatchMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // A: begins executing and holds the device
		defer wg.Done()
		if _, _, err := s.Predict(context.Background(), testSeq()); err != nil {
			t.Error(err)
		}
	}()
	<-f.started
	// B: queued behind A with a cancelable context.
	ctx, cancel := context.WithCancel(context.Background())
	bErr := make(chan error, 1)
	go func() {
		_, _, err := s.Predict(ctx, testSeq())
		bErr <- err
	}()
	waitQueued(t, s, 2)
	cancel()
	if err := <-bErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled queued request error = %v, want context.Canceled", err)
	}
	f.release <- struct{}{} // let A finish; the worker then drains B
	wg.Wait()
	// C proves the device keeps serving after the abandoned request.
	f.release <- struct{}{}
	if _, _, err := s.Predict(context.Background(), testSeq()); err != nil {
		t.Fatal(err)
	}
	if got := f.calls.Load(); got != 2 {
		t.Fatalf("engine executed %d requests, want 2 (the canceled one must never reach it)", got)
	}
}

func TestExpiredDeadlineRejectedUpFront(t *testing.T) {
	f := &fakeInf{seqLen: 8}
	s, err := New([]infer.Inferencer{f}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := s.Predict(ctx, testSeq()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline error = %v, want context.DeadlineExceeded", err)
	}
	if f.calls.Load() != 0 {
		t.Fatal("expired request reached the device")
	}
}

func TestStoredScanBatching(t *testing.T) {
	f := &fakeInf{seqLen: 8, started: make(chan struct{}, 8), release: make(chan struct{}, 8)}
	s, err := New([]infer.Inferencer{f}, Config{QueueDepth: 8, BatchMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // live request holds the device while the scan burst queues
		defer wg.Done()
		if _, _, err := s.Predict(context.Background(), testSeq()); err != nil {
			t.Error(err)
		}
	}()
	<-f.started
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := s.PredictStored(context.Background(), int64(i*64)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	waitQueued(t, s, 5)
	for i := 0; i < 5; i++ {
		f.release <- struct{}{}
	}
	wg.Wait()
	st := s.Stats()
	if st.Jobs != 5 {
		t.Fatalf("jobs = %d, want 5", st.Jobs)
	}
	// The live request is one dispatch; the 4 adjacent stored requests must
	// coalesce into a single dispatch.
	if st.Dispatches != 2 {
		t.Fatalf("dispatches = %d, want 2 (batching inactive)", st.Dispatches)
	}
}

func TestCloseFailsPendingAndRejectsNew(t *testing.T) {
	f := &fakeInf{seqLen: 8}
	s, err := New([]infer.Inferencer{f}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Predict(context.Background(), testSeq()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
	if _, _, err := s.Predict(context.Background(), testSeq()); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close error = %v, want ErrClosed", err)
	}
}
