package kernels

// Mixed precision — the paper's §VI future direction, implemented here as
// an optional fourth configuration.
//
// The fully-unrolled fixed-point gate MACs need one DSP slice per multiply:
// 4·H·(O+H) = 5,120 DSPs for the paper model, which fits the Alveo U200 but
// not the SmartSSD's KU15P (1,968). Mixed precision quantizes the gate
// *inputs* (weights, embeddings, hidden state) to a narrow scale whose
// operands fit 8 bits, letting the synthesizer pack four multiplies into
// each DSP48E2 — 1,280 DSPs total — while the precision-sensitive cell
// path (Ct accumulation, softsign, FC head) stays at the full 10⁶ scale.
// That is exactly the paper's proposal: "performing operations in lower
// precision where high precision is not necessary, and in higher precision
// where greater accuracy is required".
//
// The price is quantization error in the gate pre-activations; the
// LevelMixed tests and the mixed-precision ablation quantify the accuracy
// cost against the DSP savings.

import (
	"github.com/kfrida1/csdinf/internal/fixed"
	"github.com/kfrida1/csdinf/internal/fpga"
	"github.com/kfrida1/csdinf/internal/hls"
	"github.com/kfrida1/csdinf/internal/lstm"
)

// NarrowScale is the low-precision scale for gate inputs: 10² keeps the
// scaled weights within 8 bits (|w| ≲ 1.27), enabling 4-per-DSP packing.
const NarrowScale = 100

// DSPPackFactor is how many narrow multiplies one DSP slice executes.
const DSPPackFactor = 4

// quantizeNarrow fills the pipeline's narrow-scale parameter copies.
func (p *Pipeline) quantizeNarrow() {
	m := p.model
	cfg := p.cfg
	p.nEmbed = make([][]fixed.Value, cfg.VocabSize)
	for i := range p.nEmbed {
		p.nEmbed[i] = p.narrow.QuantizeSlice(m.Embedding.Row(i))
	}
	for g := range m.Gates {
		p.nWx[g] = make([][]fixed.Value, cfg.HiddenSize)
		p.nWh[g] = make([][]fixed.Value, cfg.HiddenSize)
		for r := 0; r < cfg.HiddenSize; r++ {
			p.nWx[g][r] = p.narrow.QuantizeSlice(m.Gates[g].Wx.Row(r))
			p.nWh[g][r] = p.narrow.QuantizeSlice(m.Gates[g].Wh.Row(r))
		}
		// Biases join after the MAC array; keep them wide.
		p.qB[g] = p.arith.QuantizeSlice(m.Gates[g].B)
	}
	p.qFCW = p.arith.QuantizeSlice(m.FCW)
	p.qFCB = p.arith.FromFloat(m.FCB)
}

// stepMixed executes one item with narrow gate MACs and a wide cell path.
func (p *Pipeline) stepMixed(item int) (Result, bool) {
	n := p.cfg.HiddenSize
	x := p.nEmbed[item]

	// h(t-1) is stored wide; requantize the copy handed to the gate CUs,
	// as the hardware's width converter does on the h_copy path.
	for k, v := range p.hQ {
		p.hNarrow[k] = p.narrow.FromFloat(p.arith.ToFloat(v))
	}

	// Narrow-scale pre-activations are widened to the wide scale before the
	// bias joins. The wide scale is an exact multiple of NarrowScale, so
	// Rescale is the exact widening multiply — but routed through the
	// sanctioned conversion rather than a raw scale-ratio product.
	for g := range p.nWx {
		for r := 0; r < n; r++ {
			pre := p.narrow.Dot(p.nWx[g][r], x)
			pre = p.narrow.Add(pre, p.narrow.Dot(p.nWh[g][r], p.hNarrow))
			wide := p.arith.Add(p.arith.Rescale(pre, p.narrow), p.qB[g][r])
			if lstm.GateName(g+1) == lstm.GateCandidate {
				p.gateQ[g*n+r] = p.fact.Softsign(wide)
			} else {
				p.gateQ[g*n+r] = p.fact.Sigmoid(wide)
			}
		}
	}
	p.cellUpdate()
	p.counter++
	if p.counter < p.seqLen {
		return Result{}, false
	}
	return p.fixedHead(), true
}

// mixedGatesSpec is gatesSpec at the mixed level: the MAC loop fully
// unrolls, but DSPPackFactor narrow multiplies share each DSP, quartering
// the DSP bill (4·H·(O+H)/4 = 1,280 total for the paper model — inside the
// KU15P's budget).
func mixedGatesSpec(cfg lstm.Config, gateCUs int) fpga.KernelSpec {
	h, o := cfg.HiddenSize, cfg.EmbedDim
	macs := h * (o + h)
	packed := (macs + DSPPackFactor - 1) / DSPPackFactor

	mac := hls.Loop{
		// One iteration per packed DSP: a 4-way SIMD multiply plus the
		// partial-sum adds.
		Name: "mac_packed", Trip: packed,
		Body:           []hls.Op{hls.IntMul, hls.IntAdd, hls.IntAdd, hls.IntAdd, hls.IntAdd},
		Pipeline:       true,
		Unroll:         packed,
		ArrayPartition: true,
	}
	return fpga.KernelSpec{
		Name:  KernelGates,
		CUs:   gateCUs,
		Loops: []hls.Loop{mac},
		Buffers: []hls.Buffer{
			// 8-bit weights: a quarter of the 32-bit words.
			{Name: "weights", Words: (macs + 3) / 4, PartitionComplete: true},
			{Name: "x_in", Words: (o + 3) / 4, PartitionComplete: true},
			{Name: "h_in", Words: (h + 3) / 4, PartitionComplete: true},
		},
	}
}
