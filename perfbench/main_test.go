package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

type spec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared reads the metrics BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer []spec) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.EndToEnd, doc.PerLayer
}

// tinyRun runs one workload for a second and decodes its last line.
func tinyRun(t *testing.T, workload, trace string) (int, report, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "1", "--seconds", "1",
		"--trace", trace, "--spans-dir", t.TempDir()}, &out, &errOut, origin{time.Now(), cpuTime()})
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s: last line is not the result: %v\nstdout:\n%s\nstderr:\n%s", workload, err, out.String(), errOut.String())
	}
	return code, rep, out.String()
}

func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for trace, want := range map[string][]spec{"0": endToEnd, "1": perLayer} {
			code, rep, out := tinyRun(t, w, trace)
			// The race detector slows the stack tenfold: the open-loop
			// rates then overload it and runs fall short of the checked
			// ops, so only the printed metrics are checked there.
			if !raceEnabled && (code != 0 || !rep.Correct || rep.Attempted < 1 || rep.Failed != 0) {
				t.Errorf("%s trace %s: exit %d, correct %v, attempted %d, failed %d\n%s",
					w, trace, code, rep.Correct, rep.Attempted, rep.Failed, out)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json declares %d", w, trace, len(rep.Metrics), len(want))
			}
			for _, s := range want {
				m, ok := rep.Metrics[s.Name]
				if !ok || m.Unit != s.Unit {
					t.Errorf("%s trace %s: metric %s = %+v (present %v), want unit %s", w, trace, s.Name, m, ok, s.Unit)
				}
			}
		}
	}
}

func TestPerturbedDigestFailsTheOutputCheck(t *testing.T) {
	pinned := pinnedDigests["scan"]
	pinnedDigests["scan"] = pinned ^ 1
	defer func() { pinnedDigests["scan"] = pinned }()
	code, rep, out := tinyRun(t, "scan", "0")
	if code == 0 || rep.Correct {
		t.Fatalf("perturbed digest passed: exit %d, correct %v\n%s", code, rep.Correct, out)
	}
	if !strings.Contains(out, "output digest") {
		t.Errorf("no digest finding in the output:\n%s", out)
	}
}

func TestScanRepeatsMustMatchTheFirstPass(t *testing.T) {
	res := &result{outs: make([]outcome, scanSeqs)}
	for i := range res.outs {
		res.outs[i] = outcome{op: int64(i), done: true, prob: float64(i) / scanSeqs}
	}
	for op := int64(scanSeqs); op < 3*scanSeqs; op++ {
		res.repeats = append(res.repeats, repeat{op: op, prob: float64(op%scanSeqs) / scanSeqs})
	}
	if p := checkRepeats(res); p != "" {
		t.Fatalf("faithful repeats failed the check: %s", p)
	}
	res.repeats[700].prob = math.Nextafter(res.repeats[700].prob, 1)
	if p := checkRepeats(res); !strings.Contains(p, "scan op 1212 ") {
		t.Fatalf("a repeat one ulp off passed or was misreported: %q", p)
	}
}

func TestSegmentedFiguresAreMediansOfSegments(t *testing.T) {
	res := &result{}
	// Five one-second segments; the third holds a burst that is slow and
	// completes a fifth of the usual ops.
	for seg, ms := range []int{1, 2, 50, 3, 4} {
		n := 100
		if ms == 50 {
			n = 20
		}
		for i := 0; i < n; i++ {
			res.lat = append(res.lat, msDur(ms))
			res.latAt = append(res.latAt, msDur(seg*1000+i))
			res.work = append(res.work, 1)
		}
	}
	got, per := segmented(res, msDur(5000), 0.99)
	if len(per) != 5 || got != 3 {
		t.Fatalf("segmented p99 = %v over %v, want 3 (median of 1, 2, 3, 4, 50)", got, per)
	}
	rate, perRate := segmentedRate(res, msDur(5000))
	if len(perRate) != 5 || rate != 100 {
		t.Fatalf("segmented rate = %v over %v, want 100/s", rate, perRate)
	}
}

func msDur(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

func TestSpeedProbeScalesToTheReferenceHost(t *testing.T) {
	var p speedProbe
	if k := p.scale(); k != 1 {
		t.Fatalf("scale with no bursts = %v, want 1", k)
	}
	// A host at half the reference speed: bursts take twice as long.
	p.samples = []float64{2 * probeRefNS, 1.5 * probeRefNS, 2 * probeRefNS, 9 * probeRefNS, 2 * probeRefNS}
	if k := p.scale(); k != 0.5 {
		t.Fatalf("scale = %v, want 0.5 (the median burst is twice the reference)", k)
	}
	p = *newSpeedProbe()
	p.start()
	time.Sleep(5 * probeEvery)
	p.finish()
	if len(p.samples) == 0 || p.medianNS() <= 0 {
		t.Fatalf("probe ran %d bursts, median %v ns", len(p.samples), p.medianNS())
	}
}
