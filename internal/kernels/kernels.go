// Package kernels implements the paper's five-kernel LSTM inference pipeline
// (Fig. 2) as it executes on the CSD's FPGA:
//
//   - kernel_preprocess consumes one item of a fully-formed sequence and
//     produces its embedding (the one-hot × M×O dot product), making four
//     copies so each gate compute unit owns private inputs (§III-C);
//   - four kernel_gates compute units run in parallel, one per gate
//     (i, f, o, C'), each computing act(Wx·x + Wh·h + b);
//   - kernel_hidden_state keeps the cell state entirely local (avoiding a
//     kernel-to-kernel transfer of Ct, §III-B), computes
//     Ct = f⊙C(t-1) + i⊙C' and h = o⊙act(Ct), maintains the static item
//     counter, and applies the fully-connected head when the counter reaches
//     the sequence length.
//
// The pipeline is simultaneously *functional* — it really computes the
// classification, bit-faithful to the paper's fixed-point arithmetic at the
// OptFixedPoint level — and *timed*: each kernel carries an HLS loop-nest
// descriptor whose schedule on the FPGA model yields per-item latencies.
// Optimization levels are cumulative, matching Fig. 3's presentation:
// LevelVanilla (kernel parallelization only) → LevelII (+ PIPELINE, UNROLL,
// ARRAY_PARTITION) → LevelFixedPoint (+ scaled-integer arithmetic).
package kernels

import (
	"errors"
	"fmt"

	"github.com/kfrida1/csdinf/internal/activation"
	"github.com/kfrida1/csdinf/internal/fixed"
	"github.com/kfrida1/csdinf/internal/fpga"
	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/tensor"
)

// OptLevel selects the cumulative optimization level of Fig. 3.
type OptLevel int

// Optimization levels, cumulative left to right.
const (
	// LevelVanilla has only the kernel parallelization of §III-C: four gate
	// CUs plus dataflow between kernels. Floating-point arithmetic.
	LevelVanilla OptLevel = iota + 1
	// LevelII adds the initiation-interval optimizations of §III-D:
	// #pragma HLS PIPELINE II=1, UNROLL, and ARRAY_PARTITION complete.
	LevelII
	// LevelFixedPoint additionally converts all arithmetic to scale-10⁶
	// fixed point, freeing enough DSPs to fully unroll the gate MACs.
	LevelFixedPoint
	// LevelMixed implements the paper's §VI future direction: narrow
	// (8-bit, DSP-packed) gate MACs with a full-precision cell path. It
	// quarters the gate DSP bill so the design fits the SmartSSD's KU15P.
	// Not part of Fig. 3; see internal/kernels/mixed.go.
	LevelMixed
)

// String returns the level name used in Fig. 3.
func (l OptLevel) String() string {
	switch l {
	case LevelVanilla:
		return "Vanilla"
	case LevelII:
		return "II"
	case LevelFixedPoint:
		return "Fixed-point"
	case LevelMixed:
		return "Mixed-precision"
	default:
		return fmt.Sprintf("OptLevel(%d)", int(l))
	}
}

// Levels lists the optimization levels in Fig. 3 order of application.
var Levels = []OptLevel{LevelVanilla, LevelII, LevelFixedPoint}

// Kernel names as they appear in the paper.
const (
	KernelPreprocess  = "kernel_preprocess"
	KernelGates       = "kernel_gates"
	KernelHiddenState = "kernel_hidden_state"
)

// GateCUs is the number of parallel kernel_gates compute units (§III-C).
const GateCUs = 4

// Pipeline is a deployed five-kernel inference pipeline: quantized (or
// float) weights, FPGA placement, and per-item recurrent state.
//
// A Pipeline is not safe for concurrent use; its recurrent state advances
// with every ProcessItem call.
type Pipeline struct {
	cfg   lstm.Config
	level OptLevel
	model *lstm.Model

	dev    *fpga.Device
	placed map[string]*fpga.PlacedKernel

	arith   fixed.Arith
	narrow  fixed.Arith
	fact    activation.Fixed
	gateCUs int
	probe   NumericProbe

	// Quantized parameters (LevelFixedPoint only).
	qEmbed [][]fixed.Value    // M rows of O values
	qWx    [4][][]fixed.Value // per gate: H rows of O values
	qWh    [4][][]fixed.Value // per gate: H rows of H values, views into whAll
	qB     [4][]fixed.Value
	qFCW   []fixed.Value
	qFCB   fixed.Value

	// Fast LevelFixedPoint datapath (see stepFixed).
	whAll    []fixed.Value   // the four gates' Wh stacked row-major: 4H rows of H
	xProj    [][]fixed.Value // per item, nil until first use: 4H input projections
	projFree []fixed.Value   // unused tail of the slab xProj rows are cut from

	// Narrow-scale parameters (LevelMixed only; see mixed.go).
	nEmbed [][]fixed.Value
	nWx    [4][][]fixed.Value
	nWh    [4][][]fixed.Value

	// Recurrent state.
	seqLen  int
	counter int
	hF, cF  tensor.Vector // float state (Vanilla / II)
	hQ, cQ  []fixed.Value // fixed state (FixedPoint / Mixed)

	// Per-item scratch, allocated once so a step allocates nothing.
	gateQ   []fixed.Value         // 4H gate pre-activations, then outputs (i, f, o, C')
	hNarrow []fixed.Value         // h(t-1) at the narrow scale (Mixed)
	xF      tensor.Vector         // embedding (Vanilla / II)
	gateF   [4]tensor.Vector      // gate outputs (Vanilla / II)
	preF    tensor.Vector         // one gate's pre-activation (Vanilla / II)
	whF     tensor.Vector         // one gate's Wh·h (Vanilla / II)
	cellAct func(float64) float64 // the model's cell activation (Vanilla / II)
}

// Config describes pipeline deployment.
type Config struct {
	// Level is the optimization level (default LevelFixedPoint, the paper's
	// production configuration).
	Level OptLevel
	// Part is the FPGA part (default fpga.AlveoU200, the paper's platform).
	Part fpga.Part
	// SeqLen is the pre-established sequence length consumed per
	// classification (default 100, the paper's window).
	SeqLen int
	// Scale is the fixed-point scale (default fixed.DefaultScale = 10⁶).
	Scale int64
	// GateCUs overrides the number of kernel_gates compute units (default
	// 4, the paper's §III-C parallelization). With fewer CUs the four gate
	// computations serialize onto the available units, which the gate-CU
	// ablation quantifies. Must divide 4.
	GateCUs int
	// Streaming connects the kernels with on-chip AXI4-Stream FIFOs
	// instead of global-memory buffers — the additional acceleration the
	// paper notes "can be easily ported to the kernel implementation ...
	// if the FPGA supports it" (§III-C). It removes the AXI burst
	// prologues and the explicit x/h copy loops. Requires LevelII or
	// above (the vanilla configuration predates the pragma work).
	Streaming bool
}

func (c *Config) defaults() {
	if c.Level == 0 {
		c.Level = LevelFixedPoint
	}
	if c.Part.Name == "" {
		c.Part = fpga.AlveoU200
	}
	if c.SeqLen == 0 {
		c.SeqLen = 100
	}
	if c.Scale == 0 {
		c.Scale = fixed.DefaultScale
	}
	if c.GateCUs == 0 {
		c.GateCUs = GateCUs
	}
}

// New deploys the model onto a fresh FPGA device at the given optimization
// level, quantizing weights when the level uses fixed point. It fails if the
// scheduled kernels do not fit the part's fabric — which is exactly what
// happens when LevelFixedPoint's fully-unrolled gate MACs are placed on a
// part smaller than the paper's U200.
func New(m *lstm.Model, cfg Config) (*Pipeline, error) {
	if m == nil {
		return nil, errors.New("kernels: nil model")
	}
	cfg.defaults()
	switch cfg.Level {
	case LevelVanilla, LevelII, LevelFixedPoint, LevelMixed:
	default:
		return nil, fmt.Errorf("kernels: unknown optimization level %d", int(cfg.Level))
	}
	if cfg.GateCUs < 0 || 4%cfg.GateCUs != 0 {
		return nil, fmt.Errorf("kernels: gate CU count %d must divide 4", cfg.GateCUs)
	}
	if cfg.Streaming && cfg.Level < LevelII {
		return nil, fmt.Errorf("kernels: streaming requires level II or above, got %s", cfg.Level)
	}
	if cfg.SeqLen <= 0 {
		return nil, fmt.Errorf("kernels: sequence length must be positive, got %d", cfg.SeqLen)
	}
	arith, err := fixed.New(cfg.Scale)
	if err != nil {
		return nil, fmt.Errorf("kernels: %w", err)
	}
	narrow, err := fixed.New(NarrowScale)
	if err != nil {
		return nil, fmt.Errorf("kernels: %w", err)
	}

	dev, err := fpga.NewDevice(cfg.Part)
	if err != nil {
		return nil, fmt.Errorf("kernels: %w", err)
	}
	p := &Pipeline{
		cfg:     m.Config(),
		level:   cfg.Level,
		model:   m,
		dev:     dev,
		placed:  make(map[string]*fpga.PlacedKernel, 3),
		arith:   arith,
		narrow:  narrow,
		fact:    activation.NewFixed(arith),
		seqLen:  cfg.SeqLen,
		gateCUs: cfg.GateCUs,
	}

	for _, spec := range kernelSpecs(p.cfg, cfg.Level, cfg.GateCUs, cfg.Streaming) {
		pk, err := dev.Place(spec)
		if err != nil {
			return nil, fmt.Errorf("kernels: place %s at level %s: %w", spec.Name, cfg.Level, err)
		}
		p.placed[spec.Name] = pk
	}

	switch cfg.Level {
	case LevelFixedPoint:
		p.quantize()
	case LevelMixed:
		p.quantizeNarrow()
	}
	if err := p.allocState(); err != nil {
		return nil, err
	}
	return p, nil
}

// allocState allocates the recurrent state and the per-item scratch of the
// pipeline's level once, so that stepping allocates nothing.
func (p *Pipeline) allocState() error {
	h := p.cfg.HiddenSize
	if p.level >= LevelFixedPoint {
		p.hQ = make([]fixed.Value, h)
		p.cQ = make([]fixed.Value, h)
		p.gateQ = make([]fixed.Value, 4*h)
		if p.level == LevelMixed {
			p.hNarrow = make([]fixed.Value, h)
		}
		return nil
	}
	cellAct, err := p.cfg.CellActivation.Func()
	if err != nil {
		return fmt.Errorf("kernels: %w", err)
	}
	p.cellAct = cellAct
	p.hF = tensor.NewVector(h)
	p.cF = tensor.NewVector(h)
	p.xF = tensor.NewVector(p.cfg.EmbedDim)
	for g := range p.gateF {
		p.gateF[g] = tensor.NewVector(h)
	}
	p.preF = tensor.NewVector(h)
	p.whF = tensor.NewVector(h)
	return nil
}

// quantize converts all model parameters to fixed point, the host-side
// scaling step of §III-D ("we multiply the floating-point values of weights,
// biases, and embeddings by this factor before the host initialization").
func (p *Pipeline) quantize() {
	m := p.model
	cfg := p.cfg
	p.qEmbed = make([][]fixed.Value, cfg.VocabSize)
	for i := range p.qEmbed {
		p.qEmbed[i] = p.arith.QuantizeSlice(m.Embedding.Row(i))
	}
	h := cfg.HiddenSize
	p.whAll = make([]fixed.Value, 0, 4*h*h)
	for g := range m.Gates {
		p.qWx[g] = make([][]fixed.Value, h)
		p.qWh[g] = make([][]fixed.Value, h)
		for r := 0; r < h; r++ {
			p.qWx[g][r] = p.arith.QuantizeSlice(m.Gates[g].Wx.Row(r))
			start := len(p.whAll)
			p.whAll = append(p.whAll, p.arith.QuantizeSlice(m.Gates[g].Wh.Row(r))...)
			p.qWh[g][r] = p.whAll[start:len(p.whAll):len(p.whAll)]
		}
		p.qB[g] = p.arith.QuantizeSlice(m.Gates[g].B)
	}
	p.qFCW = p.arith.QuantizeSlice(m.FCW)
	p.qFCB = p.arith.FromFloat(m.FCB)
	p.xProj = make([][]fixed.Value, cfg.VocabSize)
}

// Reset clears the recurrent state and item counter for a new sequence.
func (p *Pipeline) Reset() {
	p.counter = 0
	clear(p.hQ)
	clear(p.cQ)
	clear(p.hF)
	clear(p.cF)
}

// Level returns the pipeline's optimization level.
func (p *Pipeline) Level() OptLevel { return p.level }

// Device returns the FPGA device the pipeline is placed on.
func (p *Pipeline) Device() *fpga.Device { return p.dev }

// Placed returns the placed kernel by name (nil if not placed), giving
// profilers access to the loop schedules behind the latency figures.
func (p *Pipeline) Placed(name string) *fpga.PlacedKernel { return p.placed[name] }

// GateCUs returns the number of kernel_gates compute units in this
// deployment (4 in the paper's configuration; fewer under the gate-CU
// ablation).
func (p *Pipeline) GateCUs() int { return p.gateCUs }

// SeqLen returns the pre-established sequence length.
func (p *Pipeline) SeqLen() int { return p.seqLen }

// Result is the classification produced once a full sequence has been
// consumed.
type Result struct {
	// Ransomware is the hard decision (logit >= 0).
	Ransomware bool
	// Probability is the sigmoid of the head logit.
	Probability float64
	// Logit is the raw head output.
	Logit float64
}

// ProcessItem advances the pipeline by one sequence item, mirroring the
// hardware dataflow: preprocess → four parallel gate CUs → hidden state.
// When the static counter reaches the sequence length, the FC head fires and
// a Result is returned with done = true; the state then resets for the next
// sequence, as the hardware counter does.
func (p *Pipeline) ProcessItem(item int) (res Result, done bool, err error) {
	if item < 0 || item >= p.cfg.VocabSize {
		return Result{}, false, fmt.Errorf("%w: item %d, vocab %d",
			lstm.ErrItemOutOfRange, item, p.cfg.VocabSize)
	}
	switch {
	case p.level == LevelMixed:
		res, done = p.stepMixed(item)
	case p.level == LevelFixedPoint:
		res, done = p.stepFixed(item)
	default:
		res, done, err = p.stepFloat(item)
		if err != nil {
			return Result{}, false, err
		}
	}
	if done {
		p.Reset()
	}
	return res, done, nil
}

// Classify resets the pipeline and consumes the whole sequence, which must
// be exactly SeqLen items (the paper's kernels consume "a fully-formed data
// sequence"). It returns the classification and the simulated FPGA cycles.
func (p *Pipeline) Classify(seq []int) (Result, int64, error) {
	if len(seq) != p.seqLen {
		return Result{}, 0, fmt.Errorf("kernels: sequence length %d, pipeline expects %d", len(seq), p.seqLen)
	}
	p.Reset()
	var last Result
	var done bool
	for t, item := range seq {
		var err error
		last, done, err = p.ProcessItem(item)
		if err != nil {
			return Result{}, 0, fmt.Errorf("kernels: item %d: %w", t, err)
		}
	}
	if !done {
		return Result{}, 0, errors.New("kernels: sequence ended before counter fired")
	}
	_, _, _, perItem := p.ItemCycles()
	return last, perItem * int64(p.seqLen), nil
}

// stepFloat executes one item in floating point (Vanilla and II levels).
// The arithmetic is identical to the offline model's forward pass; only the
// schedule differs between the two levels.
func (p *Pipeline) stepFloat(item int) (Result, bool, error) {
	m := p.model

	// kernel_preprocess: embedding via one-hot dot product, copied 4×.
	x := p.xF
	if err := m.Embed(item, x); err != nil {
		return Result{}, false, err
	}

	// Four kernel_gates CUs in parallel, each with its own copies of x and
	// h(t-1).
	pre, wh := p.preF, p.whF
	for g, out := range p.gateF {
		m.Gates[g].Wx.MulVec(pre, x)
		m.Gates[g].Wh.MulVec(wh, p.hF)
		pre.Add(wh)
		pre.Add(m.Gates[g].B)
		if lstm.GateName(g+1) == lstm.GateCandidate {
			for i, v := range pre {
				out[i] = p.cellAct(v)
			}
		} else {
			for i, v := range pre {
				out[i] = activation.SigmoidF(v)
			}
		}
	}

	// kernel_hidden_state: cell update, activation, output gate, counter.
	i, f, o, cand := p.gateF[0], p.gateF[1], p.gateF[2], p.gateF[3]
	for k := range p.cF {
		p.cF[k] = f[k]*p.cF[k] + i[k]*cand[k]
		p.hF[k] = o[k] * p.cellAct(p.cF[k])
	}
	p.counter++
	if p.counter < p.seqLen {
		return Result{}, false, nil
	}
	logit := m.Logit(p.hF)
	return Result{Ransomware: logit >= 0, Probability: activation.SigmoidF(logit), Logit: logit}, true, nil
}

// stepFixed executes one item entirely in scale-10⁶ fixed point — the
// arithmetic the FPGA DSP slices perform at LevelFixedPoint.
//
// It computes exactly what stepFixedProbed, the per-gate reference, computes
// — Dot(Wx,x) + Dot(Wh,h) + b per gate row, each Dot rounded once — but only
// the arithmetic that depends on h(t-1) runs per item. Dot(Wx,x) + b depends
// on the item alone and comes from the inputProjection table. The four
// gates' Wh·h run as one fused 4H×H pass over whAll. int64 addition wraps,
// and wrapping addition is associative, so moving b ahead of the Wh term
// leaves every bit unchanged even when a stage overflows.
func (p *Pipeline) stepFixed(item int) (Result, bool) {
	if p.probe != nil {
		return p.stepFixedProbed(item)
	}
	n := p.cfg.HiddenSize
	pre := p.gateQ
	copy(pre, p.inputProjection(item))

	// Fused Wh·h: four weight rows per pass share each h[k] load.
	for r := 0; r+4 <= len(pre); r += 4 {
		a0, a1, a2, a3 := mac4(p.whAll[r*n:(r+4)*n], p.hQ)
		out := pre[r : r+4 : r+4]
		out[0] = p.arith.Add(out[0], p.arith.FromRaw(a0))
		out[1] = p.arith.Add(out[1], p.arith.FromRaw(a1))
		out[2] = p.arith.Add(out[2], p.arith.FromRaw(a2))
		out[3] = p.arith.Add(out[3], p.arith.FromRaw(a3))
	}

	// Gates in canonical order i, f, o, C': sigmoid on the first three,
	// softsign on the candidate.
	sig, cand := pre[:3*n], pre[3*n:]
	for r, v := range sig {
		sig[r] = p.fact.Sigmoid(v)
	}
	for r, v := range cand {
		cand[r] = p.fact.Softsign(v)
	}
	p.cellUpdate()
	p.counter++
	if p.counter < p.seqLen {
		return Result{}, false
	}
	return p.fixedHead(), true
}

// mac4 returns the raw scale-S² dot products of h with each of the four
// consecutive len(h)-long rows in rows: the accumulators Dot holds before its
// rescale. It is a separate function so its loop keeps all four accumulators
// in registers.
func mac4(rows, h []fixed.Value) (a0, a1, a2, a3 fixed.Value) {
	n := len(h)
	w0, w1, w2, w3 := rows[:n], rows[n:][:n], rows[2*n:][:n], rows[3*n:][:n]
	for k, hk := range h {
		a0 += w0[k] * hk //csdlint:allow fixedwidth raw MAC; rescaled once by FromRaw, as Dot does
		a1 += w1[k] * hk //csdlint:allow fixedwidth raw MAC; rescaled once by FromRaw, as Dot does
		a2 += w2[k] * hk //csdlint:allow fixedwidth raw MAC; rescaled once by FromRaw, as Dot does
		a3 += w3[k] * hk //csdlint:allow fixedwidth raw MAC; rescaled once by FromRaw, as Dot does
	}
	return a0, a1, a2, a3
}

// projSlabRows is how many input-projection rows one allocation holds.
const projSlabRows = 16

// inputProjection returns item's row of the input-projection table:
// Dot(qWx[g][r], qEmbed[item]) + qB[g][r] at index g·H+r. A row is computed on
// the item's first use and cut from a slab, so a pipeline only holds rows for
// the items it has seen.
func (p *Pipeline) inputProjection(item int) []fixed.Value {
	if row := p.xProj[item]; row != nil {
		return row
	}
	n := p.cfg.HiddenSize
	if len(p.projFree) < 4*n {
		p.projFree = make([]fixed.Value, projSlabRows*4*n)
	}
	row := p.projFree[: 4*n : 4*n]
	p.projFree = p.projFree[4*n:]
	x := p.qEmbed[item]
	for g := range p.qWx {
		for r, wx := range p.qWx[g] {
			row[g*n+r] = p.arith.Add(p.arith.Dot(wx, x), p.qB[g][r])
		}
	}
	p.xProj[item] = row
	return row
}

// cellUpdate is kernel_hidden_state at the fixed-point levels: it folds the
// activated gates in gateQ into the cell and hidden state.
func (p *Pipeline) cellUpdate() {
	n := p.cfg.HiddenSize
	g := p.gateQ
	i, f, o, cand := g[:n], g[n:2*n], g[2*n:3*n], g[3*n:4*n]
	for k := range p.cQ {
		p.cQ[k] = p.arith.Add(p.arith.Mul(f[k], p.cQ[k]), p.arith.Mul(i[k], cand[k]))
		p.hQ[k] = p.arith.Mul(o[k], p.fact.Softsign(p.cQ[k]))
	}
}

// fixedHead is the fully-connected head at the fixed-point levels.
func (p *Pipeline) fixedHead() Result {
	logit := p.arith.Add(p.arith.Dot(p.qFCW, p.hQ), p.qFCB)
	fl := p.arith.ToFloat(logit)
	return Result{Ransomware: logit >= 0, Probability: activation.SigmoidF(fl), Logit: fl}
}

// ItemCycles returns the simulated per-item latency of each kernel and the
// total. The four gate CUs run in parallel (§III-C), so the gates figure is
// the latency of one CU — the maximum across identical CUs. The total is
// the sum of the three stages, matching the paper's arithmetic for the
// "total execution time" of a forward pass (e.g. 0.8 + 0.00333 + 1.348 ≈
// 2.15133 µs at full optimization).
func (p *Pipeline) ItemCycles() (preprocess, gates, hidden, total int64) {
	preprocess = p.placed[KernelPreprocess].CyclesPerInvocation
	// With fewer than four CUs the four gate computations serialize onto
	// the available units in 4/gateCUs rounds (the gate-CU ablation).
	rounds := int64(GateCUs / p.gateCUs)
	gates = p.placed[KernelGates].CyclesPerInvocation * rounds
	hidden = p.placed[KernelHiddenState].CyclesPerInvocation
	return preprocess, gates, hidden, preprocess + gates + hidden
}

// KernelMicros returns per-kernel and total per-item latency in
// microseconds, the unit of Fig. 3.
func (p *Pipeline) KernelMicros() (preprocess, gates, hidden, total float64) {
	pc, gc, hc, tc := p.ItemCycles()
	return p.dev.Microseconds(pc), p.dev.Microseconds(gc), p.dev.Microseconds(hc), p.dev.Microseconds(tc)
}

// PipelinedItemCycles returns the steady-state per-item cycles when the
// dataflow overlap of §III-C is credited: kernel_preprocess works on item
// t+1 while the gate CUs and kernel_hidden_state process item t, so the
// pipeline initiation interval is max(preprocess, gates+hidden) rather than
// the sum. The paper quotes the sum; this figure quantifies the additional
// headroom (used by the dataflow ablation).
func (p *Pipeline) PipelinedItemCycles() int64 {
	pc, gc, hc, _ := p.ItemCycles()
	rest := gc + hc
	if pc > rest {
		return pc
	}
	return rest
}
