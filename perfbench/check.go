package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
)

// checkedOps is how many leading ops of live and scan the output digest
// covers; stream's digest covers its whole first pass.
const checkedOps = 256

// pinnedDigests are the output digests for seed 1. A datapath that is not
// bit-identical to the reference changes them. Blackout has none: which of
// its ops complete depends on timing.
var pinnedDigests = map[string]uint64{
	"live":   0x7ee731063333854f,
	"scan":   0x3169eae40de9870e,
	"stream": 0xc68e66b3821d9439,
}

// referenceSamples is how many completed ops beyond the digest's are
// re-classified on the reference engine.
const referenceSamples = 256

// check verifies a run's outputs and returns what is wrong with them.
func (b *bench) check(res *result, s summary) []string {
	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	if s.failed > 0 {
		fail("%d of %d ops failed", s.failed, s.attempted)
	}
	// Simulated device time is a model output: every classification must
	// report the pipeline's cycles, which is Table I's 2.2 µs per item.
	_, _, _, kernelUS := b.st.engines[0].PerItemMicros()
	if math.Abs(s.simUSPerItem-kernelUS) > 1e-9 || math.Round(s.simUSPerItem*10)/10 != 2.2 {
		fail("sim_us_per_item %.9f, want the kernel's %.9f (2.2 at Table I precision)", s.simUSPerItem, kernelUS)
	}

	if b.o.workload != "blackout" {
		n := len(res.outs)
		if b.o.workload != "stream" {
			n = checkedOps
			if len(res.outs) < n {
				fail("only %d ops generated, the digest covers %d", len(res.outs), n)
				n = len(res.outs)
			}
		}
		d := newDigest()
		for _, o := range res.outs[:n] {
			if !o.done {
				fail("op %d did not complete", o.op)
			}
			d.add(o.op, o.prob)
		}
		got := d.sum()
		b.digest = got
		if want := pinnedDigests[b.o.workload]; b.o.seed == 1 && got != want {
			fail("output digest %016x, pinned %016x for seed 1", got, want)
		}
	}
	if p := checkRepeats(res); p != "" {
		fail("%s", p)
	}
	for i, pd := range res.passDigests {
		if pd != res.passDigests[0] {
			fail("stream pass %d digest %016x differs from pass 0's %016x", i, pd, res.passDigests[0])
		}
	}
	if b.o.workload == "stream" {
		recall, fpr, _ := scoreQuality(res.outs)
		if res.scorecard.Recall != recall || res.scorecard.FPR != fpr {
			fail("quality scorecard recall %v fpr %v, windows give %v %v",
				res.scorecard.Recall, res.scorecard.FPR, recall, fpr)
		}
	}
	problems = append(problems, b.checkReference(res)...)
	return problems
}

// checkRepeats requires every scan op past the first pass to repeat, bit for
// bit, the probability its first-pass twin got for the same sequence, and
// describes the first that does not.
func checkRepeats(res *result) string {
	for _, r := range res.repeats {
		first := res.outs[r.op%scanSeqs]
		if !first.done || math.Float64bits(first.prob) != math.Float64bits(r.prob) {
			return fmt.Sprintf("scan op %d probability %v, op %d on the same sequence %v", r.op, r.prob, first.op, first.prob)
		}
	}
	return ""
}

// checkReference re-classifies the digest's ops and a seeded sample of the
// other completed ops on a bare engine, one at a time, and requires the
// same probability bits: no op may get another op's verdict or a verdict
// perturbed by concurrency.
func (b *bench) checkReference(res *result) []string {
	ref, err := b.deployBare()
	if err != nil {
		return []string{fmt.Sprintf("deploy reference engine: %v", err)}
	}
	idx := make([]int, 0, checkedOps+referenceSamples)
	for i := 0; i < len(res.outs) && i < checkedOps; i++ {
		idx = append(idx, i)
	}
	if len(res.outs) > checkedOps {
		r := rand.New(rand.NewSource(b.o.seed))
		for k := 0; k < referenceSamples; k++ {
			idx = append(idx, checkedOps+r.Intn(len(res.outs)-checkedOps))
		}
	}
	var problems []string
	for _, i := range idx {
		o := res.outs[i]
		if !o.done {
			continue
		}
		r, _, err := ref.Predict(context.Background(), o.seq)
		if err != nil {
			return append(problems, fmt.Sprintf("reference classify: %v", err))
		}
		if math.Float64bits(r.Probability) != math.Float64bits(o.prob) {
			problems = append(problems, fmt.Sprintf("op %d probability %v, reference %v", o.op, o.prob, r.Probability))
			if len(problems) >= 5 {
				return problems
			}
		}
	}
	return problems
}
