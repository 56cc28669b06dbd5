package main

import "time"

// The speed probe measures how fast the host runs a fixed piece of work
// while the benchmark runs. A shared host's speed moves by a quarter or
// more between runs (clock frequency, a busy hyperthread sibling, cache
// pressure from neighbours), and every timed metric moves with it. The
// timed end-to-end metrics (set-up time, p50 latency, CPU per window) are
// scaled by probeRefNS / (the probe's median), which reports them at the
// speed of the host the benchmark was tuned on; the raw figures are printed
// beside them.
//
// The probe's work is integer arithmetic and stores into a table that fits
// in L1, like the fixed-point datapath, and none of it is program code, so
// a change to the program cannot change the probe.
const (
	probeIters = 1 << 14
	probeTable = 1 << 12 // 32 KiB of uint64
	probeEvery = 10 * time.Millisecond
	// probeRefNS is the probe's median on the 2-vCPU VM the benchmark was
	// tuned on.
	probeRefNS = 47000
)

func probeWork(table []uint64) {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < probeIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (probeTable - 1)
		table[j] = table[j]*0x2545f4914f6cdd1d + x
	}
	table[0] += x
}

// speedProbe runs a probe burst every probeEvery on its own goroutine,
// about two percent of one core, until stopped.
type speedProbe struct {
	table   []uint64
	samples []float64     // ns per burst
	busy    time.Duration // time spent in bursts, both passes
	stop    chan struct{}
	done    chan struct{}
}

func newSpeedProbe() *speedProbe {
	return &speedProbe{table: make([]uint64, probeTable)}
}

// sample runs n bursts on the calling goroutine. A burst does the fixed
// work twice and times the second pass: the first warms the caches and the
// core after the goroutine's sleep.
func (p *speedProbe) sample(n int) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		probeWork(p.table)
		t1 := time.Now()
		probeWork(p.table)
		t2 := time.Now()
		p.samples = append(p.samples, float64(t2.Sub(t1)))
		p.busy += t2.Sub(t0)
	}
}

// start runs bursts on a goroutine until finish is called.
func (p *speedProbe) start() {
	p.stop, p.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.sample(1)
			}
		}
	}()
}

// finish stops the goroutine and waits for it to end.
func (p *speedProbe) finish() {
	close(p.stop)
	<-p.done
}

// medianNS is the median burst time in nanoseconds.
func (p *speedProbe) medianNS() float64 { return median(p.samples) }

// scale is what a time measured alongside the probe is multiplied by to
// give it at the reference host's speed.
func (p *speedProbe) scale() float64 {
	if len(p.samples) == 0 {
		return 1
	}
	return probeRefNS / p.medianNS()
}
