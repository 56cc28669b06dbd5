package kernels

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"github.com/kfrida1/csdinf/internal/lstm"
	"github.com/kfrida1/csdinf/internal/sandbox"
)

// goldenWindow is the window length of the golden digests: the paper's
// sequence length.
const goldenWindow = 100

// catalogWindows draws one goldenWindow-long trace from every profile in the
// sandbox catalog: each ransomware variant, each benign app, and the manual
// interaction profile. Seeds are fixed so the windows never change.
func catalogWindows(t testing.TB) [][]int {
	t.Helper()
	var profiles []*sandbox.Profile
	for _, fam := range sandbox.Families {
		for v := 0; v < fam.Variants; v++ {
			p, err := sandbox.RansomwareProfile(fam.Name, v)
			if err != nil {
				t.Fatal(err)
			}
			profiles = append(profiles, p)
		}
	}
	for _, app := range sandbox.BenignApps {
		p, err := sandbox.BenignProfile(app)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	profiles = append(profiles, sandbox.ManualInteractionProfile())

	windows := make([][]int, len(profiles))
	for i, p := range profiles {
		w, err := p.Generate(goldenWindow, int64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		windows[i] = w
	}
	return windows
}

// scaleModel multiplies the embedding, every gate's weights and biases, and
// the head by gain in place. Gains above 1 push the gate pre-activations into
// every PLAN segment; large gains make the fixed-point stages wrap.
func scaleModel(m *lstm.Model, gain float64) {
	scale := func(xs []float64) {
		for i := range xs {
			xs[i] *= gain
		}
	}
	scale(m.Embedding.Data)
	for g := range m.Gates {
		scale(m.Gates[g].Wx.Data)
		scale(m.Gates[g].Wh.Data)
		scale(m.Gates[g].B)
	}
	scale(m.FCW)
	m.FCB *= gain
}

// logitDigest classifies every window at level and returns the FNV-64a
// digest of the logits' IEEE-754 bits, in window order.
func logitDigest(t *testing.T, m *lstm.Model, level OptLevel, windows [][]int) uint64 {
	t.Helper()
	p, err := New(m, Config{Level: level, SeqLen: goldenWindow})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for i, w := range windows {
		res, _, err := p.Classify(w)
		if err != nil {
			t.Fatalf("%s window %d: %v", level, i, err)
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(res.Logit))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestGoldenLogits pins the logits of a seeded paper-size model over the
// sandbox catalog at every optimization level, bit for bit. The digests were
// recorded from the straightforward per-gate datapath; any rewrite of the
// step functions must reproduce them exactly. The "hot" model scales every
// weight by 4 so the sigmoid gates visit all four PLAN segments.
func TestGoldenLogits(t *testing.T) {
	windows := catalogWindows(t)
	for _, tc := range []struct {
		name string
		gain float64
		want map[OptLevel]uint64
	}{
		{"cool", 1, map[OptLevel]uint64{
			LevelVanilla:    0x8b241219a48fb7f0,
			LevelII:         0x8b241219a48fb7f0,
			LevelFixedPoint: 0x116500d1f18517c9,
			LevelMixed:      0xc8e253ef24c4e1fa,
		}},
		{"hot", 4, map[OptLevel]uint64{
			LevelVanilla:    0x40ae18933409a172,
			LevelII:         0x40ae18933409a172,
			LevelFixedPoint: 0xc551e267a501624e,
			LevelMixed:      0x902b6d9cc2d4acf1,
		}},
	} {
		m, err := lstm.NewModel(lstm.PaperConfig(), 1)
		if err != nil {
			t.Fatal(err)
		}
		scaleModel(m, tc.gain)
		for _, level := range []OptLevel{LevelVanilla, LevelII, LevelFixedPoint, LevelMixed} {
			if got := logitDigest(t, m, level, windows); got != tc.want[level] {
				t.Errorf("%s model, %s: logit digest %#016x, want %#016x", tc.name, level, got, tc.want[level])
			}
		}
	}
}
