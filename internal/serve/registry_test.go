package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/kfrida1/csdinf/internal/device"
	"github.com/kfrida1/csdinf/internal/infer"
)

// TestSharedRegistryHandles runs the server over a pre-registered device
// and checks its lifecycle state gates admission: a draining or failed
// device takes no new work, and a rejoined one serves again.
func TestSharedRegistryHandles(t *testing.T) {
	reg := device.NewRegistry(device.Config{})
	reg.Register() // csd-000 belongs to another layer
	d := reg.Register()
	if err := d.SetReady("test"); err != nil {
		t.Fatal(err)
	}
	f := &fakeInf{seqLen: 8, cost: time.Millisecond}
	s, err := New([]infer.Inferencer{f}, Config{Device: d})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if reg.Len() != 2 {
		t.Fatalf("server registered extra devices: %d", reg.Len())
	}
	for i := 0; i < 4; i++ {
		if _, _, err := s.Predict(context.Background(), testSeq()); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.ID != "csd-001" || st.Jobs != 4 || st.BusyTime != 4*time.Millisecond {
		t.Fatalf("stats = %+v, want csd-001 with 4 jobs and 4ms busy", st)
	}

	if err := d.Drain("maintenance"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Predict(context.Background(), testSeq()); !errors.Is(err, ErrNoReadyDevice) {
		t.Fatalf("draining device: err = %v, want ErrNoReadyDevice", err)
	}
	if st := s.Stats(); st.State != "draining" || st.Jobs != 4 {
		t.Fatalf("draining device stats = %+v", st)
	}
	if err := d.Fail("simulated-fault"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Predict(context.Background(), testSeq()); !errors.Is(err, ErrNoReadyDevice) {
		t.Fatalf("failed device: err = %v, want ErrNoReadyDevice", err)
	}

	// Rejoin restores service.
	if err := d.SetReady("repaired"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Predict(context.Background(), testSeq()); err != nil {
		t.Fatalf("after rejoin: %v", err)
	}
	if f.calls.Load() != 5 {
		t.Fatalf("engine executed %d requests, want 5", f.calls.Load())
	}
}

// TestHandleCountValidation pins the one-device contract: a device handle
// pairs with exactly one engine.
func TestHandleCountValidation(t *testing.T) {
	d := device.NewRegistry(device.Config{}).Register()
	for _, engines := range [][]infer.Inferencer{
		nil,
		{&fakeInf{seqLen: 8}, &fakeInf{seqLen: 8}},
	} {
		if _, err := New(engines, Config{Device: d}); err == nil {
			t.Fatalf("%d engines for one device handle: expected error", len(engines))
		}
	}
}
