// Command perfbench is the repository benchmark. It drives the CSD serving
// stack through the public functions of fleet, serve, core, kernels, csd,
// detect, fixed and activation, times those calls from outside, checks
// that every verdict is bit-identical to the reference, and prints its
// metrics as one JSON object on the last line of standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload live --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 1
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	live      open-loop Poisson windows from 2000 tenants, full observability
//	scan      two closed-loop callers over sequences stored on every SSD
//	stream    every ransomware variant and benign app through per-process detectors
//	blackout  live traffic at a lower rate under csdload's -chaos plan
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// with spans recorded around every layer call, then the serialized ladder,
// and prints the per-layer metrics. Spans are written to --spans-dir.
//
// Timed end-to-end metrics are scaled to the speed of the host the
// benchmark was tuned on, by a speed probe run alongside the ops (see
// speed.go); the unscaled figures are printed before the JSON line.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/lstm"
)

var processStart = time.Now()

// origin is where the first set-up's clocks start: process start for the
// command, the call for a test that runs several workloads in one process.
type origin struct {
	wall time.Time
	cpu  time.Duration
}

var workloads = []string{"live", "scan", "stream", "blackout"}

// setupRuns is how many times a run builds its stack. Set-up time is the
// median of their CPU times (user+sys, the first counted from process
// start): on a shared 2-vCPU host, CPU steal moved the wall-clock median by
// up to half while the CPU-time median moved by under a tenth.
const setupRuns = 9

// setupProbeBursts is how many speed-probe bursts follow each set-up; their
// median scales set-up time.
const setupProbeBursts = 20

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, origin{wall: processStart}))
}

func run(args []string, stdout, stderr io.Writer, start origin) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "input seed (the output digests are pinned for seed 1)")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured run length in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1: record spans, run the ladder and print per-layer metrics")
	fs.StringVar(&o.spansDir, "spans-dir", ".bench_build/spans", "directory for the traced run's spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	if o.workload == "all" {
		return runAll(args, stdout, stderr)
	}
	if !known(o.workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	rep, err := measure(o, start)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout)
	if !rep.Correct {
		return 1
	}
	return 0
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

// runAll runs every workload in its own process, one after another.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, replaceWorkload(args, w)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

func replaceWorkload(args []string, w string) []string {
	out := []string{"--workload", w}
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "--workload" || a == "-workload":
			i++
		case strings.HasPrefix(a, "--workload=") || strings.HasPrefix(a, "-workload="):
		default:
			out = append(out, a)
		}
	}
	return out
}

// bench is one built workload: the stack and its generated inputs.
type bench struct {
	o      options
	model  *lstm.Model
	rec    *recorder
	st     *stack
	live   []liveOp // live and blackout
	scan   *scanSet
	stream []streamProc
	digest uint64 // output digest of the checked ops
}

// setup loads and verifies the weights, deploys the engines (each deploy
// runs the design-rule check and the overflow proof), stores the scan
// data and builds the inputs: everything before the first timed op.
func setup(o options, rec *recorder) (*bench, error) {
	m, err := loadModel()
	if err != nil {
		return nil, err
	}
	b := &bench{o: o, model: m, rec: rec}
	dur := time.Duration(o.seconds * float64(time.Second))
	switch o.workload {
	case "live":
		b.live, err = liveSchedule(o.seed, liveRate, dur)
	case "blackout":
		b.live, err = liveSchedule(o.seed, blackoutRate, dur)
	case "scan":
		b.scan, err = newScanSet(o.seed)
	case "stream":
		b.stream, err = newStream(o.seed)
	}
	if err != nil {
		return nil, err
	}
	obs, err := newObservability(o.workload == "live" || o.workload == "blackout")
	if err != nil {
		return nil, err
	}
	if b.st, err = newStack(m, obs, rec); err != nil {
		obs.close()
		return nil, err
	}
	if b.scan != nil {
		for _, dev := range b.st.devs {
			for j, seq := range b.scan.seqs {
				if _, err := dev.StoreSequence(b.scan.offset(j), seq); err != nil {
					b.st.close()
					return nil, fmt.Errorf("store scan sequence %d: %w", j, err)
				}
			}
		}
	}
	return b, nil
}

// timed runs the workload for the configured time and samples the host
// counters around it.
func (b *bench) timed() (*result, error) {
	ctx := context.Background()
	dur := time.Duration(b.o.seconds * float64(time.Second))
	t0 := b.st.traffic()
	probe := newSpeedProbe()
	probe.start()
	rt0, cpu0 := readRuntime(), cpuTime()
	b.rec.start()
	var res *result
	var err error
	switch b.o.workload {
	case "live":
		res, err = b.runOpen(ctx, b.live, dur, nil)
	case "blackout":
		res, err = b.runOpen(ctx, b.live, dur, chaosPlan(b.st.fleet))
	case "scan":
		res, err = b.runScan(ctx, dur)
	case "stream":
		res, err = b.runStream(ctx, dur)
	}
	b.rec.stop()
	probe.finish()
	if err != nil {
		return nil, err
	}
	// The probe's own CPU time is not the program's.
	res.cpu = cpuTime() - cpu0 - probe.busy
	res.probe = probe
	res.rt0, res.rt1 = rt0, readRuntime()
	t1 := b.st.traffic()
	res.traffic = csd.Traffic{HostBytes: t1.HostBytes - t0.HostBytes, P2PBytes: t1.P2PBytes - t0.P2PBytes}
	return res, nil
}

// report is the benchmark's output: the JSON object on the last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	lines []string // human-readable lines printed before the JSON
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) print(w io.Writer) {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	js, _ := json.Marshal(r) // plain structs of numbers and strings: cannot fail
	fmt.Fprintln(w, string(js))
}

// measure builds the workload setupRuns times, runs it once, checks the
// outputs and computes the metrics.
func measure(o options, start origin) (*report, error) {
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	var setups, setupCPU []float64
	var b *bench
	setupProbe := newSpeedProbe()
	for i := 0; i < setupRuns; i++ {
		t0, c0 := time.Now(), cpuTime()
		if i == 0 {
			t0, c0 = start.wall, start.cpu
		}
		nb, err := setup(o, rec)
		if err != nil {
			if b != nil {
				b.st.close()
			}
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupCPU = append(setupCPU, (cpuTime() - c0).Seconds())
		setupProbe.sample(setupProbeBursts)
		if b != nil {
			b.st.close()
		}
		b = nb
		// Collect the previous build's garbage, so the repeated set-ups do
		// not set the process's peak memory.
		runtime.GC()
	}
	defer b.st.close()

	res, err := b.timed()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	rep := &report{Metrics: map[string]metric{}}
	rep.note("workload %s seed %d: %.1f s measured, setup runs %v s wall, %v s CPU", o.workload, o.seed,
		res.elapsed.Seconds(), roundAll(setups), roundAll(setupCPU))
	e2e := endToEnd(o, res, setupCPU, setupProbe, rep)
	problems := b.check(res, e2e)
	for _, p := range problems {
		rep.note("CHECK FAILED: %s", p)
	}
	if b.digest != 0 {
		rep.note("output digest %016x", b.digest)
	}
	rep.Correct = len(problems) == 0
	rep.Attempted, rep.Failed = e2e.attempted, e2e.failed
	if o.trace {
		rep.Metrics = map[string]metric{}
		if err := b.perLayer(res, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}
