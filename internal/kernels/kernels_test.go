package kernels

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/kfrida1/csdinf/internal/activation"
	"github.com/kfrida1/csdinf/internal/fpga"
	"github.com/kfrida1/csdinf/internal/lstm"
)

func testModel(t *testing.T) *lstm.Model {
	t.Helper()
	m, err := lstm.NewModel(lstm.Config{
		VocabSize: 20, EmbedDim: 4, HiddenSize: 8, CellActivation: activation.Softsign,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLevelString(t *testing.T) {
	tests := []struct {
		l    OptLevel
		want string
	}{
		{LevelVanilla, "Vanilla"},
		{LevelII, "II"},
		{LevelFixedPoint, "Fixed-point"},
		{OptLevel(9), "OptLevel(9)"},
	}
	for _, tt := range tests {
		if got := tt.l.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	m := testModel(t)
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil model: expected error")
	}
	if _, err := New(m, Config{Level: OptLevel(42)}); err == nil {
		t.Error("bad level: expected error")
	}
	if _, err := New(m, Config{SeqLen: -1}); err == nil {
		t.Error("negative seqlen: expected error")
	}
	if _, err := New(m, Config{Scale: -3}); err == nil {
		t.Error("bad scale: expected error")
	}
}

func TestDefaultsToPaperSetup(t *testing.T) {
	m := testModel(t)
	p, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Level() != LevelFixedPoint {
		t.Errorf("default level = %v, want Fixed-point", p.Level())
	}
	if p.SeqLen() != 100 {
		t.Errorf("default seqlen = %d, want 100", p.SeqLen())
	}
	if p.Device().Part().Name != fpga.AlveoU200.Name {
		t.Errorf("default part = %s, want U200", p.Device().Part().Name)
	}
}

func TestFloatPathMatchesReferenceModel(t *testing.T) {
	m := testModel(t)
	seq := []int{1, 5, 3, 19, 0, 7, 7, 2, 11, 4}
	for _, lv := range []OptLevel{LevelVanilla, LevelII} {
		p, err := New(m, Config{Level: lv, SeqLen: len(seq)})
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := p.Classify(seq)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Forward(seq)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Probability-want) > 1e-12 {
			t.Errorf("level %v: pipeline %v vs reference %v", lv, res.Probability, want)
		}
	}
}

func TestFixedPathTracksFloat(t *testing.T) {
	// Train a toy model so logits are away from zero, then require the
	// fixed-point pipeline to agree with the float reference.
	m, err := lstm.NewModel(lstm.Config{
		VocabSize: 10, EmbedDim: 4, HiddenSize: 8, CellActivation: activation.Softsign,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	type ex struct {
		seq   []int
		label bool
	}
	var exs []ex
	for i := 0; i < 30; i++ {
		seq := []int{2, 3, 4, 5, 6, 7, 8, 9}
		label := i%2 == 0
		if label {
			seq[i%8] = 1
		}
		exs = append(exs, ex{seq, label})
	}
	opt := &lstm.Adam{LR: 0.02}
	g := m.NewGrads()
	for epoch := 0; epoch < 40; epoch++ {
		g.Zero()
		for _, e := range exs {
			if _, err := m.Backward(e.seq, e.label, g, 5); err != nil {
				t.Fatal(err)
			}
		}
		if err := opt.Apply(m, g, len(exs)); err != nil {
			t.Fatal(err)
		}
	}

	p, err := New(m, Config{Level: LevelFixedPoint, SeqLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for _, e := range exs {
		res, _, err := p.Classify(e.seq)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := m.Predict(e.seq)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ransomware == want {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(exs)); frac < 0.95 {
		t.Fatalf("fixed/float agreement = %v, want >= 0.95", frac)
	}
}

func TestProcessItemCounterFires(t *testing.T) {
	m := testModel(t)
	p, err := New(m, Config{Level: LevelFixedPoint, SeqLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		_, done, err := p.ProcessItem(1)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			t.Fatalf("counter fired early at item %d", i)
		}
	}
	res, done, err := p.ProcessItem(1)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("counter did not fire at sequence length")
	}
	if res.Probability <= 0 || res.Probability >= 1 {
		t.Fatalf("probability %v outside (0,1)", res.Probability)
	}
	// State must have reset: a second sequence classifies identically.
	var res2 Result
	for i := 0; i < 3; i++ {
		res2, done, err = p.ProcessItem(1)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !done || res2.Probability != res.Probability {
		t.Fatalf("post-reset sequence differs: %v vs %v", res2.Probability, res.Probability)
	}
}

func TestProcessItemOOV(t *testing.T) {
	m := testModel(t)
	for _, lv := range Levels {
		p, err := New(m, Config{Level: lv, SeqLen: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.ProcessItem(99); !errors.Is(err, lstm.ErrItemOutOfRange) {
			t.Errorf("level %v: error = %v, want ErrItemOutOfRange", lv, err)
		}
	}
}

func TestClassifyLengthValidation(t *testing.T) {
	m := testModel(t)
	p, err := New(m, Config{Level: LevelVanilla, SeqLen: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Classify([]int{1, 2}); err == nil {
		t.Error("short sequence: expected error")
	}
	if _, _, err := p.Classify([]int{1, 2, 3, 4, 5, 6}); err == nil {
		t.Error("long sequence: expected error")
	}
}

func TestOptimizationOrdering(t *testing.T) {
	// The whole point of Fig. 3: each added optimization reduces total
	// per-item latency, and the gates kernel collapses at the fixed-point
	// level while preprocess stays roughly flat.
	m, err := lstm.NewModel(lstm.PaperConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	totals := make(map[OptLevel]float64)
	gates := make(map[OptLevel]float64)
	pres := make(map[OptLevel]float64)
	for _, lv := range Levels {
		p, err := New(m, Config{Level: lv})
		if err != nil {
			t.Fatal(err)
		}
		pre, g, _, tot := p.KernelMicros()
		totals[lv], gates[lv], pres[lv] = tot, g, pre
	}
	if !(totals[LevelVanilla] > totals[LevelII] && totals[LevelII] > totals[LevelFixedPoint]) {
		t.Fatalf("totals not strictly improving: %v", totals)
	}
	if gates[LevelFixedPoint] > gates[LevelII]/50 {
		t.Fatalf("fixed-point gates %v should collapse vs II %v", gates[LevelFixedPoint], gates[LevelII])
	}
	if math.Abs(pres[LevelVanilla]-pres[LevelII]) > 0.1 {
		t.Fatalf("preprocess should stay flat Vanilla→II: %v vs %v", pres[LevelVanilla], pres[LevelII])
	}
	if pres[LevelFixedPoint] < pres[LevelVanilla] {
		t.Fatalf("fixed-point preprocess should cost slightly more (wide beats): %v vs %v",
			pres[LevelFixedPoint], pres[LevelVanilla])
	}
}

func TestCalibrationAgainstFig3(t *testing.T) {
	// Paper Fig. 3 values in µs; we require each kernel within 25% (or 0.05
	// µs absolute for the near-zero bar) and totals within 10%.
	m, err := lstm.NewModel(lstm.PaperConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	paper := map[OptLevel][3]float64{
		LevelVanilla:    {0.74, 5.076, 1.651},
		LevelII:         {0.743, 2.001, 1.277},
		LevelFixedPoint: {0.8, 0.00333, 1.348},
	}
	paperTotals := map[OptLevel]float64{
		LevelVanilla:    7.467, // sum of the Fig. 3 bars (prose says ~7.153)
		LevelII:         4.021,
		LevelFixedPoint: 2.15133,
	}
	for _, lv := range Levels {
		p, err := New(m, Config{Level: lv})
		if err != nil {
			t.Fatal(err)
		}
		pre, g, h, tot := p.KernelMicros()
		want := paper[lv]
		for i, got := range []float64{pre, g, h} {
			w := want[i]
			if w < 0.05 {
				if math.Abs(got-w) > 0.05 {
					t.Errorf("%v kernel %d = %v µs, paper %v (absolute tolerance)", lv, i, got, w)
				}
				continue
			}
			if rel := math.Abs(got-w) / w; rel > 0.25 {
				t.Errorf("%v kernel %d = %v µs, paper %v (off %.0f%%)", lv, i, got, w, rel*100)
			}
		}
		if rel := math.Abs(tot-paperTotals[lv]) / paperTotals[lv]; rel > 0.10 {
			t.Errorf("%v total = %v µs, paper %v (off %.0f%%)", lv, tot, paperTotals[lv], rel*100)
		}
	}
}

func TestFixedPointGatesExceedKU15P(t *testing.T) {
	// The fully-unrolled fixed-point gate CUs need 4·H·(O+H) DSPs = 5,120
	// for the paper model — more than the SmartSSD's KU15P provides. The
	// paper evaluates on the U200, where they fit.
	m, err := lstm.NewModel(lstm.PaperConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(m, Config{Level: LevelFixedPoint, Part: fpga.KU15P}); !errors.Is(err, fpga.ErrResourceExhausted) {
		t.Fatalf("KU15P placement error = %v, want ErrResourceExhausted", err)
	}
	if _, err := New(m, Config{Level: LevelFixedPoint, Part: fpga.AlveoU200}); err != nil {
		t.Fatalf("U200 placement failed: %v", err)
	}
	// The float levels fit the KU15P fine.
	if _, err := New(m, Config{Level: LevelII, Part: fpga.KU15P}); err != nil {
		t.Fatalf("II level on KU15P failed: %v", err)
	}
}

func TestPipelinedItemCycles(t *testing.T) {
	m := testModel(t)
	p, err := New(m, Config{Level: LevelFixedPoint})
	if err != nil {
		t.Fatal(err)
	}
	pre, g, h, _ := p.ItemCycles()
	want := g + h
	if pre > want {
		want = pre
	}
	if got := p.PipelinedItemCycles(); got != want {
		t.Fatalf("PipelinedItemCycles = %d, want %d", got, want)
	}
	if got, _, _, tot := p.ItemCycles(); got <= 0 || tot <= 0 {
		t.Fatal("non-positive cycle counts")
	}
}

func TestClassifyReturnsCycles(t *testing.T) {
	m := testModel(t)
	p, err := New(m, Config{Level: LevelFixedPoint, SeqLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, cycles, err := p.Classify([]int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, perItem := p.ItemCycles()
	if cycles != 4*perItem {
		t.Fatalf("Classify cycles = %d, want %d", cycles, 4*perItem)
	}
}

func BenchmarkClassifyFixedPoint(b *testing.B) {
	m, err := lstm.NewModel(lstm.PaperConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	p, err := New(m, Config{Level: LevelFixedPoint})
	if err != nil {
		b.Fatal(err)
	}
	seq := make([]int, 100)
	for i := range seq {
		seq[i] = i % 278
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Classify(seq); err != nil {
			b.Fatal(err)
		}
	}
}

// TestClassifyAllocatesNothing pins the buffer discipline of every step
// function: once a pipeline has seen a sequence's items, classifying it
// allocates nothing at any level.
func TestClassifyAllocatesNothing(t *testing.T) {
	m, err := lstm.NewModel(lstm.PaperConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	seq := make([]int, 100)
	for i := range seq {
		seq[i] = (i * 7) % m.Config().VocabSize
	}
	for _, level := range []OptLevel{LevelVanilla, LevelII, LevelFixedPoint, LevelMixed} {
		p, err := New(m, Config{Level: level})
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, _, err := p.Classify(seq); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per Classify, want 0", level, allocs)
		}
	}
}

func TestGateCUAblation(t *testing.T) {
	m, err := lstm.NewModel(lstm.PaperConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var prevGates int64 = -1
	for _, cus := range []int{1, 2, 4} {
		p, err := New(m, Config{Level: LevelVanilla, GateCUs: cus})
		if err != nil {
			t.Fatalf("CUs=%d: %v", cus, err)
		}
		_, gates, _, _ := p.ItemCycles()
		if prevGates > 0 && gates >= prevGates {
			t.Fatalf("more CUs did not reduce gate latency: %d CUs -> %d cycles (prev %d)",
				cus, gates, prevGates)
		}
		prevGates = gates
	}
	// 1 CU serializes the four gates: exactly 4x the 4-CU latency.
	p1, err := New(m, Config{Level: LevelVanilla, GateCUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	p4, err := New(m, Config{Level: LevelVanilla, GateCUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, g1, _, _ := p1.ItemCycles()
	_, g4, _, _ := p4.ItemCycles()
	if g1 != 4*g4 {
		t.Fatalf("1-CU gates = %d, want 4x the 4-CU %d", g1, g4)
	}
	// Invalid CU counts rejected.
	for _, bad := range []int{3, 5, 8, -1} {
		if _, err := New(m, Config{GateCUs: bad}); err == nil {
			t.Errorf("GateCUs=%d accepted", bad)
		}
	}
}

func TestStreamingAcceleration(t *testing.T) {
	m, err := lstm.NewModel(lstm.PaperConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, lv := range []OptLevel{LevelII, LevelFixedPoint, LevelMixed} {
		base, err := New(m, Config{Level: lv})
		if err != nil {
			t.Fatal(err)
		}
		stream, err := New(m, Config{Level: lv, Streaming: true})
		if err != nil {
			t.Fatalf("streaming at %v: %v", lv, err)
		}
		_, _, _, bt := base.ItemCycles()
		_, _, _, st := stream.ItemCycles()
		if st >= bt {
			t.Errorf("%v: streaming %d cycles not faster than buffered %d", lv, st, bt)
		}
		// Functional output must be identical: streaming only changes the
		// data movement, not the arithmetic.
		seq := make([]int, 100)
		for i := range seq {
			seq[i] = i % 278
		}
		rb, _, err := base.Classify(seq)
		if err != nil {
			t.Fatal(err)
		}
		rs, _, err := stream.Classify(seq)
		if err != nil {
			t.Fatal(err)
		}
		if rb.Probability != rs.Probability {
			t.Errorf("%v: streaming changed the classification: %v vs %v",
				lv, rs.Probability, rb.Probability)
		}
	}
}

func TestStreamingRequiresIILevel(t *testing.T) {
	m := testModel(t)
	if _, err := New(m, Config{Level: LevelVanilla, Streaming: true}); err == nil {
		t.Fatal("streaming at vanilla level accepted")
	}
}

// Property: at the float levels the pipeline is exactly the reference
// forward pass for any sequence.
func TestPropFloatPipelineEqualsReference(t *testing.T) {
	m := testModel(t)
	p, err := New(m, Config{Level: LevelII, SeqLen: 6})
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw [6]uint8) bool {
		seq := make([]int, 6)
		for i, r := range raw {
			seq[i] = int(r) % 20
		}
		res, _, err := p.Classify(seq)
		if err != nil {
			return false
		}
		want, err := m.Forward(seq)
		if err != nil {
			return false
		}
		return math.Abs(res.Probability-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the fixed-point hidden state stays strictly inside (-S, S)
// (|h| = |o·softsign(C)| < 1 in real terms) for any input stream.
func TestPropFixedStateBounded(t *testing.T) {
	m := testModel(t)
	p, err := New(m, Config{Level: LevelFixedPoint, SeqLen: 1000})
	if err != nil {
		t.Fatal(err)
	}
	one := p.arith.One()
	f := func(raw []uint8) bool {
		p.Reset()
		for _, r := range raw {
			if _, _, err := p.ProcessItem(int(r) % 20); err != nil {
				return false
			}
		}
		for _, h := range p.hQ {
			if h <= -one || h >= one {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: Classify is deterministic and state-isolated — interleaving
// other sequences never changes a sequence's classification.
func TestPropClassifyStateIsolation(t *testing.T) {
	m := testModel(t)
	p, err := New(m, Config{Level: LevelFixedPoint, SeqLen: 5})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b [5]uint8) bool {
		seqA := make([]int, 5)
		seqB := make([]int, 5)
		for i := range a {
			seqA[i] = int(a[i]) % 20
			seqB[i] = int(b[i]) % 20
		}
		r1, _, err := p.Classify(seqA)
		if err != nil {
			return false
		}
		if _, _, err := p.Classify(seqB); err != nil {
			return false
		}
		r2, _, err := p.Classify(seqA)
		if err != nil {
			return false
		}
		return r1.Probability == r2.Probability
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
