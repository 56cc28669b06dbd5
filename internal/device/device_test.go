package device

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

func TestRegisterAssignsStableSortedIDs(t *testing.T) {
	r := NewRegistry(Config{})
	var ids []string
	for i := 0; i < 12; i++ {
		d := r.Register()
		if d.Index() != i {
			t.Fatalf("device %d: Index() = %d", i, d.Index())
		}
		ids = append(ids, string(d.ID()))
	}
	// Zero-padded ordinals: lexicographic order == registration order, the
	// property every sorted-by-ID listing in the stack relies on.
	if !sort.StringsAreSorted(ids) {
		t.Fatalf("IDs not lexicographically ordered: %v", ids)
	}
	if ids[0] != "csd-000" || ids[11] != "csd-011" {
		t.Fatalf("unexpected IDs: %v", ids)
	}
	if got, ok := r.Get(ID("csd-007")); !ok || got.Index() != 7 {
		t.Fatalf("Get(csd-007) = %v, %v", got, ok)
	}
	if r.Len() != 12 {
		t.Fatalf("Len() = %d", r.Len())
	}
}

// TestLifecycle walks the full state machine: provisioning → ready →
// draining → ready (rejoin) → failed → ready (rejoin), asserting watcher
// delivery, event emission, and rejection of invalid edges.
func TestLifecycle(t *testing.T) {
	events := eventlog.New(eventlog.Config{})
	r := NewRegistry(Config{Events: events})
	d := r.Register()

	var changes []Change
	cancel := r.Watch(func(c Change) { changes = append(changes, c) })
	defer cancel()

	if d.State() != Provisioning {
		t.Fatalf("fresh device state = %s", d.State())
	}
	if err := d.Drain("too-early"); err == nil {
		t.Fatal("Drain from provisioning should fail")
	}
	steps := []struct {
		op   func(string) error
		arg  string
		want State
	}{
		{d.SetReady, "deployed", Ready},
		{d.Drain, "reflash", Draining},
		{d.SetReady, "reflash-done", Ready},
		{d.Fail, "ecc-storm", Failed},
		{d.SetReady, "repaired", Ready},
	}
	for i, s := range steps {
		if err := s.op(s.arg); err != nil {
			t.Fatalf("step %d (%s): %v", i, s.arg, err)
		}
		if d.State() != s.want {
			t.Fatalf("step %d: state = %s, want %s", i, d.State(), s.want)
		}
	}
	if err := d.SetReady("again"); err == nil {
		t.Fatal("self-transition Ready → Ready should fail")
	}

	if len(changes) != len(steps) {
		t.Fatalf("watcher saw %d changes, want %d", len(changes), len(steps))
	}
	for i, c := range changes {
		if c.Device != d.ID() || c.To != steps[i].want || c.Reason != steps[i].arg {
			t.Fatalf("change %d = %+v", i, c)
		}
		if c.Seq != int64(i+1) {
			t.Fatalf("change %d Seq = %d", i, c.Seq)
		}
	}

	var wire bytes.Buffer
	for _, e := range events.Recent() {
		wire.Write(e.AppendJSON(nil))
		wire.WriteByte('\n')
	}
	out := wire.String()
	for _, want := range []string{
		`"event":"device.register"`,
		`"event":"device.ready"`,
		`"event":"device.drain"`,
		`"event":"device.rejoin"`, // draining → ready and failed → ready
		`"event":"device.fail"`,
		`"device":"csd-000"`,
		`"reason":"ecc-storm"`,
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("event stream missing %s:\n%s", want, out)
		}
	}
}

func TestWatchCancelStopsDelivery(t *testing.T) {
	r := NewRegistry(Config{})
	d := r.Register()
	n := 0
	cancel := r.Watch(func(Change) { n++ })
	if err := d.SetReady(""); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := d.Drain(""); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("watcher fired %d times after cancel, want 1", n)
	}
}

func TestReadyListsOnlyReadyDevices(t *testing.T) {
	r := NewRegistry(Config{})
	for i := 0; i < 4; i++ {
		r.Register()
	}
	devs := r.List()
	devs[0].SetReady("")
	devs[2].SetReady("")
	devs[2].Drain("")
	devs[3].SetReady("")
	devs[3].Fail("")
	ready := r.Ready()
	if len(ready) != 1 || ready[0].ID() != devs[0].ID() {
		t.Fatalf("Ready() = %v", ready)
	}
}

func TestHealthDegradesWithoutReadyDevices(t *testing.T) {
	r := NewRegistry(Config{})
	if status, ready := r.Health(); status != "degraded" || ready {
		t.Fatalf("empty registry Health() = %q/%v, want degraded/false", status, ready)
	}
	d := r.Register()
	if status, ready := r.Health(); status != "degraded" || ready {
		t.Fatalf("provisioning-only Health() = %q/%v, want degraded/false", status, ready)
	}
	d.SetReady("")
	if status, ready := r.Health(); status != "ok" || !ready {
		t.Fatalf("Health() with a ready device = %q/%v, want ok/true", status, ready)
	}
	d.Fail("blown-fuse")
	if status, ready := r.Health(); status != "degraded" || ready {
		t.Fatalf("Health() after last device failed = %q/%v, want degraded/false", status, ready)
	}
	var nilReg *Registry
	if status, ready := nilReg.Health(); status != "ok" || !ready {
		t.Fatalf("nil registry Health() = %q/%v, want ok/true", status, ready)
	}
}

func TestScoreAccounting(t *testing.T) {
	r := NewRegistry(Config{})
	d := r.Register()
	if d.Score() != 0 {
		t.Fatalf("fresh Score = %d", d.Score())
	}
	// Before any busy sample, queued work costs the floor estimate.
	d.IncPending()
	if d.Score() != estFloor {
		t.Fatalf("Score with 1 pending = %d, want %d", d.Score(), estFloor)
	}
	d.AddBusy(int64(4 * time.Millisecond))
	if d.Busy() != int64(4*time.Millisecond) {
		t.Fatalf("Busy = %d", d.Busy())
	}
	want := int64(4*time.Millisecond) + int64(4*time.Millisecond)
	if d.Score() != want {
		t.Fatalf("Score = %d, want busy+est = %d", d.Score(), want)
	}
	d.DecPending()
	if d.Pending() != 0 {
		t.Fatalf("Pending = %d", d.Pending())
	}
}

// TestScoreColdDeviceBorrowsRegistryCost: a device with no completions of
// its own prices its backlog at the registry's last observed cost, so its
// queue does not look free next to a warm device's busy time.
func TestScoreColdDeviceBorrowsRegistryCost(t *testing.T) {
	r := NewRegistry(Config{})
	warm, cold := r.Register(), r.Register()
	warm.AddBusy(int64(time.Millisecond))
	cold.IncPending()
	cold.IncPending()
	if got, want := cold.Score(), int64(2*time.Millisecond); got != want {
		t.Fatalf("cold Score with 2 pending = %d, want %d", got, want)
	}
	if cold.Score() <= warm.Score() {
		t.Fatalf("cold device with 2 queued (%d) scores at or below warm device with 1 done (%d)",
			cold.Score(), warm.Score())
	}
}

func TestRegistryStatsSortedAndTelemetryLabeled(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRegistry(Config{Telemetry: reg})
	for i := 0; i < 3; i++ {
		d := r.Register()
		d.SetReady("")
		d.AddBusy(int64(i+1) * int64(time.Millisecond))
	}
	stats := r.Stats()
	if len(stats) != 3 {
		t.Fatalf("%d stats", len(stats))
	}
	for i, s := range stats {
		if want := ID(fmt.Sprintf("csd-%03d", i)); s.ID != want {
			t.Fatalf("stats[%d].ID = %s, want %s", i, s.ID, want)
		}
		if s.State != "ready" || s.BusyTime != time.Duration(i+1)*time.Millisecond {
			t.Fatalf("stats[%d] = %+v", i, s)
		}
	}
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`device_busy_nanoseconds_total{device="csd-002"}`,
		`device_state{device="csd-001"}`,
		`device_transitions_total{device="csd-000"}`,
	} {
		if !bytes.Contains(b.Bytes(), []byte(want)) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestConcurrentTransitions hammers one device's lifecycle from many
// goroutines under -race: exactly one of each competing transition wins and
// the watcher sequence numbers stay dense.
func TestConcurrentTransitions(t *testing.T) {
	r := NewRegistry(Config{})
	d := r.Register()
	d.SetReady("")

	var mu sync.Mutex
	var seqs []int64
	cancel := r.Watch(func(c Change) {
		mu.Lock()
		seqs = append(seqs, c.Seq)
		mu.Unlock()
	})
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each iteration tries a full drain/rejoin cycle; losers get
			// validation errors, never a corrupt state.
			d.Drain("stress")
			d.SetReady("stress")
		}()
	}
	wg.Wait()
	if s := d.State(); s != Ready && s != Draining {
		t.Fatalf("terminal state %s", s)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("watcher seq gap: %v", seqs)
		}
	}
}
