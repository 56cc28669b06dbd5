// Package device is the shared device registry: the single owner of CSD
// identity, lifecycle, and capacity accounting for every layer of the
// stack.
//
// The paper evaluates one SmartSSD; a data center runs racks of them, and
// at that scale "which device" stops being a loop index. Placement needs
// stable identities that survive drains and rejoins, telemetry and trace
// tracks need labels that mean the same thing in every layer, incident
// forensics needs to attribute verdicts to the drive that produced them,
// and maintenance flows (drain for reflash, fail on ECC storm, rejoin
// after repair) need a lifecycle state machine that every scheduler
// observes instead of reimplementing. Before this package each of those
// concerns lived privately inside internal/serve; now serve, node, fleet,
// incident, and the event log all consume the same registry.
//
// Identity: a Device has a stable ID ("csd-000", "csd-001", ...) assigned
// at registration and never reused. The zero-padded ordinal makes
// lexicographic order equal registration order, so sorted-by-ID output is
// deterministic at any fleet size.
//
// Lifecycle: Provisioning → Ready ⇄ Draining, with Failed reachable from
// any live state and Rejoin returning a drained or failed device to Ready.
// Transitions are validated, counted, published to watchers, and emitted
// as device.* events with the device attribution filled in.
//
// Accounting: the registry owns each device's simulated-busy counter,
// outstanding-request gauge, and per-request cost EWMA. Schedulers at any
// layer read one Score — accumulated simulated busy time plus the
// estimated cost of the backlog — so "least loaded" means the same thing
// to the node fan-out, the serve queues, and the fleet placer.
//
// All methods are safe for concurrent use.
package device

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/telemetry"
)

// ID is a stable device identity. IDs are assigned at registration
// ("csd-000", "csd-001", ...) and never reused; zero-padding makes
// lexicographic order equal registration order.
type ID string

// State is a device lifecycle state.
type State uint8

// Lifecycle states. The zero value is Provisioning: a registered device
// serves nothing until its owner marks it Ready.
const (
	// Provisioning: registered, engine not yet deployed or warmed.
	Provisioning State = iota
	// Ready: serving; eligible for placement.
	Ready
	// Draining: finishing queued work but accepting no new placements —
	// the graceful maintenance path (reflash, firmware update).
	Draining
	// Failed: out of service; in-flight work must be re-placed elsewhere.
	Failed
)

// String returns the lowercase state name.
func (s State) String() string {
	switch s {
	case Provisioning:
		return "provisioning"
	case Ready:
		return "ready"
	case Draining:
		return "draining"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Event names emitted by the registry, one per lifecycle edge. They are
// named constants so the eventname analyzer can pin the vocabulary.
const (
	EventRegister = "device.register"
	EventReady    = "device.ready"
	EventDrain    = "device.drain"
	EventFail     = "device.fail"
	EventRejoin   = "device.rejoin"
)

// Change describes one lifecycle transition, as delivered to watchers.
type Change struct {
	// Device is the transitioning device's ID.
	Device ID
	// From and To are the states on either side of the edge.
	From, To State
	// Reason is the operator- or scheduler-supplied cause ("reflash",
	// "simulated-fault", ...); may be empty.
	Reason string
	// Seq orders changes registry-wide, starting at 1.
	Seq int64
	// Time is when the transition committed.
	Time time.Time
}

// Config controls a Registry.
type Config struct {
	// Prefix names registered devices: "<prefix>-<ordinal>". Empty
	// defaults to "csd".
	Prefix string
	// Telemetry, when non-nil, receives the registry's per-device
	// instruments: device_busy_nanoseconds_total, device_pending_requests,
	// device_state (numeric State), and device_transitions_total — all
	// labeled device="<id>". With a nil registry the same instruments
	// still back the accessors, just unexported.
	Telemetry *telemetry.Registry
	// Events, when non-nil, receives one device.* event per registration
	// and lifecycle transition, with the event's device attribution set.
	Events *eventlog.Logger
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// Registry owns a set of devices. The zero value is not usable; build one
// with NewRegistry.
type Registry struct {
	cfg Config

	mu       sync.Mutex
	devices  map[ID]*Device
	order    []*Device // registration order == ID order
	seq      int64
	watchers map[int]func(Change)
	nextW    int

	// lastCost is the most recent per-request cost any device folded in,
	// ns: the backlog estimate for devices with no samples of their own.
	lastCost atomic.Int64

	// Watcher delivery runs outside mu; delivered (guarded by deliverMu)
	// is the last Seq handed to watchers, so concurrent transitions
	// deliver in Seq order.
	deliverMu   sync.Mutex
	deliverCond *sync.Cond
	delivered   int64
}

// NewRegistry builds an empty registry.
func NewRegistry(cfg Config) *Registry {
	if cfg.Prefix == "" {
		cfg.Prefix = "csd"
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	r := &Registry{
		cfg:      cfg,
		devices:  make(map[ID]*Device),
		watchers: make(map[int]func(Change)),
	}
	r.deliverCond = sync.NewCond(&r.deliverMu)
	return r
}

// Device is one registered drive: identity, lifecycle, and capacity
// accounting. Devices are created by Registry.Register and live for the
// registry's lifetime — a failed device keeps its identity and may rejoin.
type Device struct {
	id  ID
	idx int
	reg *Registry

	state atomic.Uint32
	est   atomic.Int64 // EWMA per-request simulated cost, ns

	busy        *telemetry.Counter // accumulated simulated device time, ns
	pending     *telemetry.Gauge   // requests placed but not completed
	stateGauge  *telemetry.Gauge   // numeric State, for dashboards
	transitions *telemetry.Counter // lifecycle edges taken
}

// Register adds a fresh device in the Provisioning state and returns it.
func (r *Registry) Register() *Device {
	r.mu.Lock()
	idx := len(r.order)
	id := ID(fmt.Sprintf("%s-%03d", r.cfg.Prefix, idx))
	reg := r.cfg.Telemetry
	dl := telemetry.L("device", string(id))
	d := &Device{
		id: id, idx: idx, reg: r,
		busy: reg.Counter("device_busy_nanoseconds_total",
			"Accumulated simulated device time.", dl),
		pending: reg.Gauge("device_pending_requests",
			"Requests placed on the device but not yet completed.", dl),
		stateGauge: reg.Gauge("device_state",
			"Lifecycle state (0 provisioning, 1 ready, 2 draining, 3 failed).", dl),
		transitions: reg.Counter("device_transitions_total",
			"Lifecycle transitions taken.", dl),
	}
	r.devices[id] = d
	r.order = append(r.order, d)
	r.mu.Unlock()
	r.cfg.Events.LogDevice(context.Background(), eventlog.LevelInfo, "device", EventRegister,
		string(id), eventlog.F("index", idx))
	return d
}

// Get returns the device with the given ID.
func (r *Registry) Get(id ID) (*Device, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.devices[id]
	return d, ok
}

// Len returns the number of registered devices.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}

// List returns every registered device in ID order.
func (r *Registry) List() []*Device {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Device(nil), r.order...)
}

// Ready returns the devices currently in the Ready state, in ID order.
func (r *Registry) Ready() []*Device {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Device, 0, len(r.order))
	for _, d := range r.order {
		if d.State() == Ready {
			out = append(out, d)
		}
	}
	return out
}

// Health judges the registry as a serving pool for liveness probes: "ok"
// (and ready) while at least one device is Ready, "degraded" (and not
// ready) once every device has drained or failed — wire it to
// telemetry.HTTPOptions.Health so /healthz?ready=1 answers 503 instead of
// pretending an empty pool can serve.
func (r *Registry) Health() (status string, ready bool) {
	if r == nil {
		return "ok", true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range r.order {
		if d.State() == Ready {
			return "ok", true
		}
	}
	return "degraded", false
}

// Watch registers a lifecycle callback and returns its cancel function.
// Callbacks run synchronously on the transitioning goroutine, in Seq
// order, after the transition has committed; keep them fast and do not
// call back into any device's transition methods from inside one.
func (r *Registry) Watch(fn func(Change)) (cancel func()) {
	r.mu.Lock()
	id := r.nextW
	r.nextW++
	r.watchers[id] = fn
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		delete(r.watchers, id)
		r.mu.Unlock()
	}
}

// ID returns the device's stable identity.
func (d *Device) ID() ID { return d.id }

// Index returns the device's registration ordinal (0, 1, 2, ...).
func (d *Device) Index() int { return d.idx }

// State returns the current lifecycle state.
func (d *Device) State() State { return State(d.state.Load()) }

// IsReady reports whether the device is eligible for placement.
func (d *Device) IsReady() bool { return d.State() == Ready }

// lifecycle edges: for each target state, the states it may be entered
// from, plus the event name of the edge.
var edges = map[State]struct {
	from  map[State]bool
	event string
}{
	Ready:    {map[State]bool{Provisioning: true, Draining: true, Failed: true}, EventReady},
	Draining: {map[State]bool{Ready: true}, EventDrain},
	Failed:   {map[State]bool{Provisioning: true, Ready: true, Draining: true}, EventFail},
}

// transition moves the device to the target state, validating the edge
// under the registry lock, then notifies watchers and emits the event.
func (d *Device) transition(to State, reason string) error {
	r := d.reg
	r.mu.Lock()
	from := d.State()
	if from == to {
		r.mu.Unlock()
		return fmt.Errorf("device: %s is already %s", d.id, to)
	}
	edge, ok := edges[to]
	if !ok || !edge.from[from] {
		r.mu.Unlock()
		return fmt.Errorf("device: %s cannot go %s → %s", d.id, from, to)
	}
	d.state.Store(uint32(to))
	d.stateGauge.Set(int64(to))
	d.transitions.Inc()
	r.seq++
	ch := Change{Device: d.id, From: from, To: to, Reason: reason, Seq: r.seq, Time: r.cfg.Clock()}
	watchers := make([]func(Change), 0, len(r.watchers))
	for _, fn := range r.watchers {
		watchers = append(watchers, fn)
	}
	r.mu.Unlock()

	r.deliverMu.Lock()
	for r.delivered != ch.Seq-1 {
		r.deliverCond.Wait()
	}
	r.deliverMu.Unlock()
	for _, fn := range watchers {
		fn(ch)
	}
	r.deliverMu.Lock()
	r.delivered = ch.Seq
	r.deliverCond.Broadcast()
	r.deliverMu.Unlock()
	event := edge.event
	// A Ready entered from Draining or Failed is a rejoin, not first light.
	if to == Ready && from != Provisioning {
		event = EventRejoin
	}
	level := eventlog.LevelInfo
	if to == Failed {
		level = eventlog.LevelError
	}
	r.cfg.Events.LogDevice(context.Background(), level, "device", event, string(d.id),
		eventlog.F("from", from.String()),
		eventlog.F("to", to.String()),
		eventlog.F("reason", reason))
	return nil
}

// SetReady marks a provisioning device serving, or rejoins a draining or
// failed device. The reason is recorded on the transition.
func (d *Device) SetReady(reason string) error { return d.transition(Ready, reason) }

// Drain stops new placements while queued work finishes. Only a Ready
// device can drain.
func (d *Device) Drain(reason string) error { return d.transition(Draining, reason) }

// Fail takes the device out of service immediately; schedulers must
// re-place its in-flight work.
func (d *Device) Fail(reason string) error { return d.transition(Failed, reason) }

// estFloor is the backlog cost assumed before any device in the registry
// has a cost sample, so queued requests count against placement from the
// start.
const estFloor = int64(time.Microsecond)

// IncPending records a request placed on the device.
func (d *Device) IncPending() { d.pending.Inc() }

// DecPending records a placed request leaving the device (completed,
// canceled, or re-placed).
func (d *Device) DecPending() { d.pending.Dec() }

// Pending returns the number of outstanding requests.
func (d *Device) Pending() int64 { return d.pending.Value() }

// AddBusy accumulates simulated device time and folds the per-request
// cost into the placement EWMA.
func (d *Device) AddBusy(ns int64) {
	if ns <= 0 {
		return
	}
	d.busy.Add(ns)
	d.reg.lastCost.Store(ns)
	if old := d.est.Load(); old == 0 {
		d.est.Store(ns)
	} else {
		d.est.Store((3*old + ns) / 4)
	}
}

// Busy returns the accumulated simulated device time in nanoseconds.
func (d *Device) Busy() int64 { return d.busy.Value() }

// Score is the device's simulated outstanding work: accumulated busy time
// plus the estimated cost of its backlog. Lower scores attract placement.
// A device that has not completed a request yet prices its backlog at the
// registry's last observed cost: at the floor, a cold device's queue would
// look nearly free next to warm devices' busy time and attract every
// placement until its first completion.
func (d *Device) Score() int64 {
	est := d.est.Load()
	if est == 0 {
		est = d.reg.lastCost.Load()
	}
	if est < estFloor {
		est = estFloor
	}
	return d.busy.Value() + d.pending.Value()*est
}

// Stats is a point-in-time read of one device's registry state.
type Stats struct {
	// ID is the stable device identity.
	ID ID `json:"id"`
	// State is the lifecycle state name.
	State string `json:"state"`
	// Pending is the outstanding-request count.
	Pending int64 `json:"pending"`
	// BusyTime is the accumulated simulated device time.
	BusyTime time.Duration `json:"busy_ns"`
	// Transitions counts lifecycle edges taken.
	Transitions int64 `json:"transitions"`
}

// Stats returns per-device registry state, sorted by device ID.
func (r *Registry) Stats() []Stats {
	devs := r.List()
	out := make([]Stats, len(devs))
	for i, d := range devs {
		out[i] = Stats{
			ID:          d.id,
			State:       d.State().String(),
			Pending:     d.Pending(),
			BusyTime:    time.Duration(d.Busy()),
			Transitions: d.transitions.Value(),
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
