package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// summary is what the output check and the JSON envelope need from a run.
type summary struct {
	attempted, completed, failed int64
	refusals                     map[string]int64
	simUSPerItem                 float64
}

// endToEnd sets the end-to-end metrics: host time throughout, except the
// simulated time per item, which is checked rather than reported. setups
// holds the CPU seconds of each set-up, and setupProbe the speed probe run
// between them. Timed metrics are scaled to the reference host's speed.
func endToEnd(o options, res *result, setups []float64, setupProbe *speedProbe, rep *report) summary {
	s := summary{refusals: map[string]int64{}}
	if o.workload == "stream" {
		s.attempted, s.completed = res.windows, res.windows
	} else {
		s.attempted = int64(len(res.outs) + len(res.repeats))
		s.completed = int64(len(res.repeats))
		for _, out := range res.outs {
			if out.done {
				s.completed++
				continue
			}
			s.refusals[sentinel(out.err)]++
			// Only the blackout plans refusals; anywhere else, and for any
			// other cause, an op that did not complete failed.
			if o.workload != "blackout" || !plannedRefusal(out.err) {
				s.failed++
			}
		}
	}
	if res.windows > 0 {
		s.simUSPerItem = res.simCompute.Seconds() * 1e6 / float64(res.windows*seqLen)
	}

	lat := durationsMS(res.lat)
	dur := time.Duration(o.seconds * float64(time.Second))
	p50, seg50 := segmented(res, dur, 0.50)
	p99, seg99 := segmented(res, dur, 0.99)
	rate, segRate := segmentedRate(res, dur)
	cpuPerWindow := res.cpu.Seconds() * 1e6 / float64(res.windows)
	k, ks := res.probe.scale(), setupProbe.scale()
	rep.set("setup_s", median(setups)*ks, "s")
	rep.set("latency_p50_ms", p50*k, "ms")
	rep.set("cpu_us_per_window", cpuPerWindow*k, "us")
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
	rep.set("completed_share", float64(s.completed)/float64(s.attempted), "ratio")

	rep.note("speed probe: median %.0f ns over %d bursts in the run (scale %.4f), %.0f ns over %d in set-up (scale %.4f); reference %d ns",
		res.probe.medianNS(), len(res.probe.samples), k, setupProbe.medianNS(), len(setupProbe.samples), ks, probeRefNS)
	rep.note("unscaled: setup_s %.6f latency_p50_ms %.6f cpu_us_per_window %.3f",
		median(setups), p50, cpuPerWindow)
	rep.note("samples: %d latencies in %d segments, %d windows, %d ops counted for throughput",
		len(lat), segments, res.windows, res.ops)
	rep.note("latency_p99_ms %.4f (median of segments; per-layer only, see BENCHMARK.json)", p99)
	rep.note("latency by segment: p50 %v ms, p99 %v ms; whole run p50 %.3f ms, p99 %.3f ms",
		roundAll(seg50), roundAll(seg99), quantile(lat, 0.5), quantile(lat, 0.99))
	rep.note("throughput %.1f /s (median of segments; per-layer only, see BENCHMARK.json); by segment %v /s; whole run %.1f /s",
		rate, roundAll(segRate), float64(res.ops)/res.elapsed.Seconds())
	rep.note("completed %d of %d attempted; failed %d; refusals by sentinel: %s",
		s.completed, s.attempted, s.failed, formatCounts(s.refusals))
	rep.note("sim_us_per_item %.6f us (simulated device time, Table I: 2.2)", s.simUSPerItem)
	recall, fpr, n := scoreQuality(res.outs)
	rep.note("quality: recall %.4f, fpr %.4f over %d labeled windows", recall, fpr, n)
	if res.offered > 0 {
		late := durationsUS(res.lateness)
		rep.note("open loop: offered %d, generator lateness p50 %.1f us p99 %.1f us",
			res.offered, quantile(late, 0.5), quantile(late, 0.99))
		// Completions that fall behind the offers mean the backlog grew:
		// the drain after the last arrival took over a tenth of the run.
		if last := res.lastAt; res.elapsed-last > res.elapsed/10 {
			rep.note("BEHIND: completions trailed the last arrival by %v", (res.elapsed - last).Round(time.Millisecond))
		}
	}
	if o.workload == "stream" {
		rep.note("stream: %d passes, calls_to_block_p50 %.0f calls over %d ransomware processes; scorecard recall %.4f fpr %.4f",
			res.passes, median(res.callsToBlock), len(res.callsToBlock), res.scorecard.Recall, res.scorecard.FPR)
	}
	return s
}

// segments splits a run by op start time. Latency percentiles and
// throughput are the median of the segments' figures, so one burst of host
// noise moves one segment, not the reported figure. A segment of a 20 s live run holds
// about 1200 samples, twelve beyond its p99; blackout's hold about 500.
const segments = 5

// segment is the index of the segment an op started at belongs to; ops
// started after dur (the stream's last pass) fall in the last one.
func segment(at, dur time.Duration) int {
	return min(int(int64(at)*segments/int64(dur)), segments-1)
}

// segmented returns the median over segments of the latency q-quantile in
// milliseconds, and the per-segment values.
func segmented(res *result, dur time.Duration, q float64) (float64, []float64) {
	parts := make([][]time.Duration, segments)
	for i, at := range res.latAt {
		k := segment(at, dur)
		parts[k] = append(parts[k], res.lat[i])
	}
	var per []float64
	for _, p := range parts {
		if len(p) > 0 {
			per = append(per, quantile(durationsMS(p), q))
		}
	}
	return median(per), per
}

// segmentedRate returns the median over segments of the ops completed per
// second, and the per-segment rates. The last segment runs to the last
// op's start, which the stream's final pass takes past dur.
func segmentedRate(res *result, dur time.Duration) (float64, []float64) {
	work := make([]float64, segments)
	end := dur
	for i, at := range res.latAt {
		work[segment(at, dur)] += float64(res.work[i])
		end = max(end, at)
	}
	per := make([]float64, segments)
	for k := range per {
		length := dur / segments
		if k == segments-1 {
			length = end - dur*(segments-1)/segments
		}
		per[k] = work[k] / length.Seconds()
	}
	return median(per), per
}

// scoreQuality is window-level recall and false-positive rate of the
// completed outcomes against their ground-truth labels, and their count.
func scoreQuality(outs []outcome) (recall, fpr float64, n int) {
	var tp, fn, fp, tn float64
	for _, o := range outs {
		if !o.done {
			continue
		}
		flagged := o.prob >= detectThreshold
		switch {
		case o.label.Truth && flagged:
			tp++
		case o.label.Truth:
			fn++
		case flagged:
			fp++
		default:
			tn++
		}
	}
	return tp / (tp + fn), fp / (fp + tn), int(tp + fn + fp + tn)
}

func formatCounts(m map[string]int64) string {
	if len(m) == 0 {
		return "none"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}

// perLayer sets the per-layer metrics of a traced run, then runs the
// serialized ladder.
func (b *bench) perLayer(res *result, rep *report) error {
	w := float64(res.windows)
	_, _, _, cycles := b.st.engines[0].Pipeline().ItemCycles()
	rep.set("kernels.sim_cycles_per_item", float64(cycles), "cycles")
	rep.set("core.sim_transfer_us", res.simTransfer.Seconds()*1e6/w, "sim_us")
	rep.set("core.sim_compute_us", res.simCompute.Seconds()*1e6/w, "sim_us")
	rep.set("csd.host_bytes_per_window", float64(res.traffic.HostBytes)/w, "B")
	rep.set("csd.p2p_bytes_per_window", float64(res.traffic.P2PBytes)/w, "B")

	// Spans: the engine span inside each fleet span; the fleet span inside
	// each detector window.
	var engine, wait, detectSelf []time.Duration
	for _, layers := range b.rec.byOp() {
		for _, e := range layers[layerEngine] {
			engine = append(engine, e.dur())
		}
		for _, f := range layers[layerFleet] {
			wait = append(wait, selfTime(f, layers[layerEngine]))
		}
		for _, d := range layers[layerDetect] {
			detectSelf = append(detectSelf, selfTime(d, layers[layerFleet]))
		}
	}
	eng, wt := durationsUS(engine), durationsUS(wait)
	rep.set("core.engine_p50_us", quantile(eng, 0.50), "us")
	rep.set("core.engine_p99_us", quantile(eng, 0.99), "us")
	rep.set("fleet.wait_p50_us", quantile(wt, 0.50), "us")
	rep.set("fleet.wait_p99_us", quantile(wt, 0.99), "us")
	detectNS := 0.0
	if b.o.workload == "stream" {
		total := res.nonWindowNS
		for _, d := range detectSelf {
			total += d
		}
		detectNS = float64(total) / float64(res.ops)
	}
	rep.set("detect.self_ns_per_call", detectNS, "ns")
	recall, fpr, _ := scoreQuality(res.outs)
	rep.set("quality.recall", recall, "ratio")
	rep.set("quality.fpr", fpr, "ratio")
	rep.set("detect.calls_to_block_p50", median(res.callsToBlock), "calls")

	rep.set("serve.queue_wait_p99_us", b.st.fleet.QueueWait().P99/1e3, "us")
	var jobs, dispatches, maxJobs float64
	stats := b.st.fleet.Stats()
	for _, n := range stats {
		j := float64(n.Serve.Jobs)
		jobs += j
		dispatches += float64(n.Serve.Dispatches)
		maxJobs = math.Max(maxJobs, j)
	}
	rep.set("fleet.skew", maxJobs/(jobs/float64(len(stats))), "ratio")
	rep.set("serve.batch_mean", jobs/dispatches, "count")
	rep.set("fleet.retries", float64(b.st.counter("fleet_retries_total")), "count")
	rep.set("fleet.spillover", float64(b.st.counter("fleet_spillover_total")), "count")
	rep.set("fleet.rejected", float64(b.st.counter("fleet_rejected_total")), "count")

	rep.set("runtime.allocs_per_window", float64(res.rt1.allocs-res.rt0.allocs)/w, "count")
	rep.set("runtime.gc_cpu_share", (res.rt1.gcCPU-res.rt0.gcCPU)/(res.rt1.totalCPU-res.rt0.totalCPU), "ratio")
	dur := time.Duration(b.o.seconds * float64(time.Second))
	p99, _ := segmented(res, dur, 0.99)
	rep.set("bench.latency_p99_ms", p99, "ms")
	rate, _ := segmentedRate(res, dur)
	rep.set("bench.throughput_per_s", rate, "1/s")
	rep.set("bench.speed_probe_ns", res.probe.medianNS(), "ns")
	rep.set("gen.lateness_p99_us", quantile(durationsUS(res.lateness), 0.99), "us")
	var timedCalls int64
	if b.o.workload == "stream" {
		timedCalls = res.ops - res.windows
	}
	rep.set("bench.trace_overhead_share", traceOverhead(len(b.rec.spans), timedCalls, res.cpu), "ratio")

	path, err := b.rec.write(b.o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", b.o.workload, b.o.seed))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rep.note("traced: %d spans written to %s", len(b.rec.spans), path)
	return b.ladder(rep)
}
